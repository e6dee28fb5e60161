// Experiment E1 / Figure 5: kernel size vs. trusted-code footprint across eras.
//
// The paper's Figure 5 shows the Tock kernel growing ~10x over a decade while the
// amount of `unsafe` Rust stays flat and small. The C++ analog: every file carries
// an ERA tag (1..5, DESIGN.md §6) and everything that would require `unsafe` in
// Rust is delimited by TRUSTED-BEGIN/END markers. This harness audits the tree and
// prints the cumulative growth table.
//
// Expected shape: total LoC rises steeply era over era; trusted LoC stays small and
// nearly flat (well under 10% by the final era).
#include <cstdio>

#include "tools/loc_audit.h"

#ifndef TOCK_SOURCE_DIR
#define TOCK_SOURCE_DIR "."
#endif

int main() {
  std::printf("==== E1 (Figure 5): kernel growth vs. trusted code ====\n\n");
  tock::AuditReport report = tock::AuditTree(std::string(TOCK_SOURCE_DIR) + "/src");
  std::printf("%s", tock::FormatReport(report).c_str());

  if (!report.cumulative_eras.empty()) {
    const auto& first = report.cumulative_eras.front();
    const auto& last = report.cumulative_eras.back();
    double growth = first.total_lines == 0
                        ? 0.0
                        : static_cast<double>(last.total_lines) /
                              static_cast<double>(first.total_lines);
    double trusted_pct = last.total_lines == 0
                             ? 0.0
                             : 100.0 * static_cast<double>(last.trusted_lines) /
                                   static_cast<double>(last.total_lines);
    std::printf("\nshape check: total grew %.1fx across eras; final trusted share %.2f%% %s\n",
                growth, trusted_pct,
                (growth > 1.5 && trusted_pct < 10.0) ? "(matches Figure 5's shape)"
                                                     : "(UNEXPECTED — investigate)");
  }
  return report.unbalanced_files == 0 ? 0 : 1;
}
