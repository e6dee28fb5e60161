// ERA: 2
// SimBoard: the trusted platform-initialization layer (Fig 2's "core kernel +
// hardware-specific adaptors" wiring). This is the one place capabilities are
// minted (§4.4), static buffers are carved out, chips are bound to peripherals, the
// driver table is populated, and the loader is configured. Everything above (the
// capsules) receives only the narrow handles constructed here.
#ifndef TOCK_BOARD_SIM_BOARD_H_
#define TOCK_BOARD_SIM_BOARD_H_

#include <array>
#include <cstdint>
#include <string>

#include "capsule/alarm_driver.h"
#include "capsule/console.h"
#include "capsule/crypto_drivers.h"
#include "capsule/led_button_gpio.h"
#include "capsule/nonvolatile_storage.h"
#include "capsule/ota_gateway.h"
#include "capsule/ota_subscriber.h"
#include "capsule/process_console.h"
#include "capsule/process_info.h"
#include "capsule/radio_driver.h"
#include "capsule/sensors.h"
#include "capsule/virtual_alarm.h"
#include "capsule/virtual_uart.h"
#include "chip/chip_aes.h"
#include "chip/chip_alarm.h"
#include "chip/chip_digest.h"
#include "chip/chip_flash.h"
#include "chip/chip_gpio.h"
#include "chip/chip_radio.h"
#include "chip/chip_rng.h"
#include "chip/chip_spi.h"
#include "chip/chip_uart.h"
#include "chip/kernel_ram.h"
#include "hw/crypto_accel.h"
#include "hw/flash_ctrl.h"
#include "hw/gpio.h"
#include "hw/mcu.h"
#include "hw/radio.h"
#include "hw/rng.h"
#include "hw/spi.h"
#include "hw/temp_sensor.h"
#include "hw/timer.h"
#include "hw/uart.h"
#include "kernel/capability.h"
#include "kernel/fault_injector.h"
#include "kernel/kernel.h"
#include "kernel/process_loader.h"
#include "libtock/libtock.h"

namespace tock {

class BoardTelemetry;  // kernel/telemetry.h

// Role a board plays in the OTA signed-app distribution scenario (DESIGN.md §12).
// Both OTA capsules are always constructed (they are plain members) but stay
// inert — no client slots stolen, no alarms armed — unless a role is configured.
enum class OtaRole : uint8_t { kNone, kGateway, kSubscriber };

struct OtaBoardConfig {
  OtaRole role = OtaRole::kNone;
  // Subscriber: flash address the pushed image is staged at and loaded from.
  // 0 = the first free app slot at Boot() time (installer().next_addr()), which
  // every subscriber with the same baseline apps resolves identically — TBF
  // images are position-dependent, so the gateway builds one image for this
  // shared address.
  uint32_t staging_addr = 0;
};

struct BoardConfig {
  KernelConfig kernel;
  uint32_t rng_seed = 0xC0FFEE;
  uint16_t radio_addr = 1;
  RadioMedium* medium = nullptr;  // attach to a Fleet's radio medium (multi-board)
  // Whether the TOCK_SCHED_POLICY environment override (the check_matrix.sh test
  // sweep) may re-point this board's scheduling policy. Heterogeneous fleets set
  // this false on boards whose policy is an explicit choice — the env hook cannot
  // otherwise tell "explicitly chose round-robin" from "took the default".
  bool allow_scheduler_env = true;
  // Seed for the board-owned fault injector (tests); the injector is always wired
  // but injects nothing until armed, so it costs one null-check per instruction.
  uint64_t fault_injection_seed = 0;
  // When non-empty, the board writes a Chrome trace-event JSON file
  // (tools/trace_export.h) here at destruction — a run artifact for
  // chrome://tracing / Perfetto. ExportTrace() exports on demand instead.
  std::string trace_export_path;
  // When nonzero, the trace export is also rewritten (atomically, via a tmp
  // file + rename) at least every this many simulated cycles while the board
  // runs, so a killed or wedged run still leaves a valid JSON artifact.
  // Applies to Run() (which then flushes between main-loop steps — the steps
  // run against the full deadline, so the recorded trace is identical to an
  // unflushed run) and to fleet epoch barriers.
  uint64_t trace_export_flush_cycles = 0;
  // Live telemetry publisher for this board (one block of a TelemetryRegion,
  // kernel/telemetry.h). The board attaches its kernel to it and feeds it from
  // the trace hook; publishing never perturbs simulated behavior.
  BoardTelemetry* telemetry = nullptr;
  // OTA distribution role (activated at the end of Boot()).
  OtaBoardConfig ota;
};

class SimBoard {
 public:
  // Apps are flashed into the upper half of flash; the lower half is notionally the
  // kernel image.
  static constexpr uint32_t kAppFlashBase = 256 * 1024;
  static constexpr uint32_t kAppFlashEnd = MemoryMap::kFlashSize;

  // The device key used to sign and verify application images (per-device secret
  // fused at manufacturing in the real products of §3.4).
  static const uint8_t kDeviceKey[32];

  // Flash window exposed to userspace through the nonvolatile-storage capsule
  // (below the app region, above the notional kernel image).
  static constexpr uint32_t kNvStorageBase = 192 * 1024;
  static constexpr uint32_t kNvStorageSize = 64 * 1024;

  // LED / button pin assignment on the GPIO bank.
  static constexpr unsigned kLed0 = 0;
  static constexpr unsigned kLed1 = 1;
  static constexpr unsigned kButton0 = 8;
  static constexpr unsigned kButton1 = 9;

  explicit SimBoard(const BoardConfig& config = BoardConfig{});
  ~SimBoard();

  // Writes the Chrome trace-event export of everything recorded so far. Returns
  // false on IO failure. Independent of the at-destruction export.
  bool ExportTrace(const std::string& path);

  // --- Pre-boot: install app images (the tockloader step). ---
  AppInstaller& installer() { return installer_; }

  // Runs the configured loader (synchronous pass, or the asynchronous verified
  // state machine driven to completion). Returns processes created.
  int Boot();

  // Runs the kernel main loop for `cycles` of simulated time. With
  // trace_export_flush_cycles set, runs in flush-sized chunks and rewrites the
  // trace artifact between chunks; otherwise a single MainLoop call (the
  // golden-trace path).
  void Run(uint64_t cycles);

  // Fleet hook, called by Fleet::StepBoard after each epoch slice: publishes a
  // telemetry snapshot (period-gated) and flushes the trace artifact when due.
  // Host-side work only — never touches simulated state.
  void OnEpochBarrier();

  BoardTelemetry* telemetry() { return config_.telemetry; }

  // --- Introspection for tests, examples, experiments ---
  Mcu& mcu() { return mcu_; }
  Kernel& kernel() { return kernel_; }
  ProcessLoader& loader() { return loader_; }
  Uart& uart_hw() { return uart_hw_; }
  Uart& uart1_hw() { return uart1_hw_; }  // the process console's port
  Gpio& gpio_hw() { return gpio_hw_; }
  TempSensor& temp_hw() { return temp_hw_; }
  Radio& radio_hw() { return radio_hw_; }
  ChipDigest& chip_digest() { return chip_digest_; }
  FaultInjector& fault_injector() { return fault_injector_; }
  VirtualAlarmMux& valarm_mux() { return valarm_mux_; }
  OtaGateway& ota_gateway() { return ota_gateway_; }
  OtaSubscriber& ota_subscriber() { return ota_subscriber_; }
  // Resolved OTA staging address (valid on subscriber boards after Boot()).
  uint32_t ota_staging_addr() const { return ota_staging_addr_; }
  const MainLoopCapability& main_cap() { return main_cap_; }
  const ProcessManagementCapability& pm_cap() { return pm_cap_; }

 private:
  BoardConfig config_;

  // ---- Capability minting (trusted init only, §4.4) ----
  CapabilityFactory cap_factory_;
  ProcessManagementCapability pm_cap_ = cap_factory_.MintProcessManagement();
  MainLoopCapability main_cap_ = cap_factory_.MintMainLoop();
  MemoryAllocationCapability mem_cap_ = cap_factory_.MintMemoryAllocation();
  ProcessLoadingCapability load_cap_ = cap_factory_.MintProcessLoading();

  // ---- Hardware ----
  Mcu mcu_;
  Uart uart_hw_;
  Uart uart1_hw_;
  AlarmTimer alarm_hw_;
  SysTick systick_;
  Gpio gpio_hw_;
  Spi spi_hw_;
  Rng rng_hw_;
  AesAccel aes_hw_;
  ShaAccel sha_hw_;
  FlashController flash_hw_;
  Radio radio_hw_;
  TempSensor temp_hw_;

  // Attaches every peripheral to the bus *before* chips and capsules construct, so
  // their bring-up MMIO writes land on real devices (member-initialization order is
  // the board's wiring order).
  struct BusWiring {
    BusWiring(SimBoard& board);
  } bus_wiring_{*this};

  // ---- Kernel ----
  Kernel kernel_;
  FaultInjector fault_injector_;
  KernelRamAllocator kram_;

  // ---- Chip drivers (privileged HIL implementations) ----
  ChipAlarm chip_alarm_;
  ChipUart chip_uart_;
  ChipUart chip_uart1_;
  ChipGpio chip_gpio_;
  ChipRng chip_rng_;
  ChipTemp chip_temp_;
  ChipDigest chip_digest_;
  ChipAes chip_aes_;
  ChipSpi<SpiCsCaps::kActiveLow> chip_spi_;
  ChipRadio chip_radio_;
  ChipFlash chip_flash_;

  // ---- Virtualizers ----
  VirtualAlarmMux valarm_mux_;
  VirtualAlarm alarm_driver_valarm_;
  VirtualUartMux vuart_mux_;
  VirtualUartDevice console_vuart_;

  // ---- Static capsule buffers (the board-owned 'static allocations) ----
  std::array<uint8_t, 128> console_tx_storage_{};
  std::array<uint8_t, 64> console_rx_storage_{};
  std::array<uint8_t, 256> hmac_data_storage_{};
  std::array<uint8_t, 32> hmac_digest_storage_{};
  std::array<uint8_t, 256> aes_data_storage_{};
  std::array<uint8_t, 256> radio_tx_storage_{};
  std::array<uint8_t, 256> radio_rx_storage_{};
  std::array<uint8_t, 256> nv_storage_buffer_{};
  std::array<uint8_t, 512> pconsole_tx_storage_{};
  std::array<uint8_t, 8> pconsole_rx_storage_{};

  // ---- Capsules ----
  AlarmDriver alarm_driver_;
  ConsoleDriver console_;
  LedDriver led_driver_;
  ButtonDriver button_driver_;
  GpioDriver gpio_driver_;
  RngDriver rng_driver_;
  TempDriver temp_driver_;
  HmacDriver hmac_driver_;
  AesDriver aes_driver_;
  RadioDriver radio_driver_;
  ProcessInfoDriver process_info_;
  NonvolatileStorage nv_storage_;
  ProcessConsole process_console_;

  // ---- Loading ----
  ProcessLoader loader_;
  AppInstaller installer_;

  // ---- OTA distribution (inert unless config_.ota.role is set; see Boot()) ----
  OtaGateway ota_gateway_;
  OtaSubscriber ota_subscriber_;
  uint32_t ota_staging_addr_ = 0;

  // Rewrites the trace artifact via tmp + rename so an observer never reads a
  // half-written file. No-op when trace_export_path is empty.
  void FlushTraceArtifact();
  uint64_t next_trace_flush_cycle_ = 0;
};

}  // namespace tock

#endif  // TOCK_BOARD_SIM_BOARD_H_
