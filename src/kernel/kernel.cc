// ERA: 2
#include "kernel/kernel.h"

#include <algorithm>
#include <cassert>

#include "hw/costs.h"
#include "hw/memory_map.h"
#include "kernel/fault_injector.h"

namespace tock {

namespace {
constexpr unsigned kSysTickIrqLine = MemoryMap::kSysTick;

// RAII cycle-attribution scope (kernel/cycle_accounting.h). Construction switches
// the open bucket; destruction restores whatever was open before, reading the clock
// directly so nesting (a syscall scope inside a user scope) suspends and resumes the
// outer bucket exactly. Compiles to nothing under -DTOCK_TRACE=OFF.
class AcctScope {
 public:
  AcctScope(KernelTrace& trace, Mcu& mcu, CycleBucket bucket,
            uint8_t pid = CycleAccounting::kNoPid)
      : trace_(trace), mcu_(mcu) {
    if constexpr (CycleAccounting::kEnabled) {
      prev_bucket_ = trace_.accounting().current_bucket();
      prev_pid_ = trace_.accounting().current_pid();
      trace_.accounting().Switch(bucket, pid, mcu_.CyclesNow());
    }
  }
  ~AcctScope() {
    if constexpr (CycleAccounting::kEnabled) {
      trace_.accounting().Switch(prev_bucket_, prev_pid_, mcu_.CyclesNow());
    }
  }
  AcctScope(const AcctScope&) = delete;
  AcctScope& operator=(const AcctScope&) = delete;

 private:
  KernelTrace& trace_;
  Mcu& mcu_;
  CycleBucket prev_bucket_ = CycleBucket::kKernel;
  uint8_t prev_pid_ = CycleAccounting::kNoPid;
};

static_assert(CycleAccounting::kMaxProcs >= Kernel::kMaxProcesses,
              "attribution tables must cover every process slot");
}  // namespace

Kernel::Kernel(Mcu* mcu, SysTick* systick, const KernelConfig& config)
    : mcu_(mcu), systick_(systick), config_(config), cpu_(&mcu->bus()) {
  // The kernel owns the SysTick interrupt line for preemption.
  mcu_->irq().Enable(kSysTickIrqLine);
  for (uint32_t i = 0; i < kMaxProcesses; ++i) {
    restart_[i].Open<&Kernel::ReviveProcess>(&mcu_->clock(), this, i);
  }
  // Watch the one modeled flash-write path so reprogrammed code can never execute
  // from a stale predecoded record (vm/decode.h).
  mcu_->bus().set_flash_observer(this);
  // Compose the board-selected scheduling policy (kernel/scheduler.h). All four
  // live in the kernel as members; only the selected one is ever consulted.
  switch (config_.scheduler.policy) {
    case SchedulerPolicy::kRoundRobin:
      scheduler_ = &sched_round_robin_;
      break;
    case SchedulerPolicy::kCooperative:
      scheduler_ = &sched_cooperative_;
      break;
    case SchedulerPolicy::kPriority:
      scheduler_ = &sched_priority_;
      break;
    case SchedulerPolicy::kMlfq:
      scheduler_ = &sched_mlfq_;
      break;
  }
}

Kernel::~Kernel() {
  mcu_->bus().set_flash_observer(nullptr);
}

// ---- Board wiring ------------------------------------------------------------------

bool Kernel::RegisterDriver(uint32_t driver_num, SyscallDriver* driver) {
  assert(driver != nullptr);
  assert(num_drivers_ < kMaxDrivers);
  size_t slot = DriverSlot(driver_num);
  while (drivers_[slot].driver != nullptr) {
    if (drivers_[slot].num == driver_num) {
      return false;  // duplicate: the first registration stands
    }
    slot = (slot + 1) & (kDriverTableSize - 1);
  }
  drivers_[slot] = DriverEntry{driver_num, driver};
  ++num_drivers_;
  return true;
}

void Kernel::RegisterIrqHandler(unsigned line, InterruptService* service) {
  assert(line < InterruptController::kNumLines);
  irq_handlers_[line] = service;
  mcu_->irq().Enable(line);
}

unsigned Kernel::AllocateGrantId(const MemoryAllocationCapability& cap) {
  (void)cap;
  assert(next_grant_id_ < Process::kMaxGrants);
  return next_grant_id_++;
}

SyscallDriver* Kernel::LookupDriver(uint32_t driver_num) {
  if (last_driver_ != nullptr && last_driver_num_ == driver_num) {
    return last_driver_;
  }
  size_t slot = DriverSlot(driver_num);
  while (drivers_[slot].driver != nullptr) {
    if (drivers_[slot].num == driver_num) {
      last_driver_num_ = driver_num;
      last_driver_ = drivers_[slot].driver;
      return last_driver_;
    }
    slot = (slot + 1) & (kDriverTableSize - 1);
  }
  return nullptr;  // hit an empty slot: the number was never registered
}

void Kernel::OnFlashProgrammed(uint32_t addr, uint32_t len) {
  for (size_t i = 0; i < num_created_processes_; ++i) {
    trace_.RecordVmBlocksInvalidated(processes_[i].decode_cache.InvalidateRange(addr, len));
  }
}

// ---- Process management --------------------------------------------------------------

Process* Kernel::CreateProcess(const ProcessCreateInfo& info,
                               const ProcessManagementCapability& cap) {
  (void)cap;
  if (num_created_processes_ >= kMaxProcesses) {
    return nullptr;
  }
  uint32_t quota = config_.process_ram_quota;
  uint32_t ram_start = MemoryMap::kRamBase + kKernelRamReserve +
                       static_cast<uint32_t>(num_created_processes_) * quota;
  if (ram_start + quota > MemoryMap::kRamBase + MemoryMap::kRamSize) {
    return nullptr;  // out of physical RAM for another quota
  }

  size_t slot = num_created_processes_++;
  Process& p = processes_[slot];
  p.id = ProcessId{static_cast<uint8_t>(slot), 1};
  p.name = info.name;
  p.flash_start = info.flash_start;
  p.flash_size = info.flash_size;
  p.entry_point = info.entry_point;
  p.ram_start = ram_start;
  p.ram_size = quota;
  uint32_t accessible = info.min_ram;
  if (accessible > quota / 2) {
    accessible = quota / 2;  // leave at least half the quota for grants by default
  }
  p.app_break = ram_start + ((accessible + 7) & ~7u);
  p.initial_break = p.app_break;
  p.grant_break = ram_start + quota;
  p.fault_policy = info.fault_policy.value_or(config_.default_fault_policy);
  p.priority = info.priority.value_or(config_.scheduler.default_priority);
  p.queue_level = 0;
  p.sched_stamp = 0;
  // The decode/block tables are NOT sized here: they allocate lazily on the
  // process's first dispatch (ExecuteProcess), so fleet slots that are created
  // but never scheduled cost zero cache memory. A dynamic reload into the same
  // window goes through ProgramFlash and is caught by OnFlashProgrammed.
  p.state = ProcessState::kUnstarted;
  return &p;
}

Result<void> Kernel::StopProcess(ProcessId pid, const ProcessManagementCapability& cap) {
  (void)cap;
  // Deliberately not GetLiveProcess: stopping a process parked in kRestartPending
  // must work too (it disarms the revival).
  Process* p = (pid.index < kMaxProcesses) ? &processes_[pid.index] : nullptr;
  if (p == nullptr || !p->id.IsValid() || p->id.generation != pid.generation ||
      (!p->IsAlive() && p->state != ProcessState::kRestartPending)) {
    return Result<void>(ErrorCode::kInvalid);
  }
  restart_[pid.index].Disarm();
  p->restart_due_cycle = 0;
  ReleaseVmCache(*p);
  p->state = ProcessState::kTerminated;
  trace_.RecordProcessExit(mcu_->CyclesNow(), p->id.index, 0);
  return Result<void>::Ok();
}

Result<void> Kernel::RestartProcess(ProcessId pid, const ProcessManagementCapability& cap) {
  (void)cap;
  Process* p = (pid.index < kMaxProcesses) ? &processes_[pid.index] : nullptr;
  if (p == nullptr || !p->id.IsValid()) {
    return Result<void>(ErrorCode::kInvalid);
  }
  restart_[pid.index].Disarm();
  ++p->restart_count;
  trace_.RecordGrantFree(mcu_->CyclesNow(), p->id.index, p->grant_regions_live,
                         p->grant_bytes_live);
  trace_.ClearProcessProfile(p->id.index);
  ReleaseVmCache(*p);
  // The reclaimed grant region is dead memory — grant_ptrs are cleared and the
  // app can never reach above its break — so zero it now, releasing its private
  // pages back to the shared backing. App-accessible RAM deliberately persists
  // across restarts (ExitRestartRunsAgainWithBumpedGeneration pins that).
  mcu_->bus().ResetRam(p->grant_break, p->ram_start + p->ram_size - p->grant_break);
  p->ResetForRestart();
  p->SetBreak(p->initial_break);
  InitProcessContext(*p);
  p->state = ProcessState::kRunnable;
  if (mpu_configured_for_ == p->id.index) {
    mpu_configured_for_ = 0xFF;  // the break moved; force an MPU reprogram
  }
  trace_.RecordProcessRestart(mcu_->CyclesNow(), p->id.index);
  return Result<void>::Ok();
}

Result<void> Kernel::SetFaultPolicy(ProcessId pid, const FaultPolicy& policy,
                                    const ProcessManagementCapability& cap) {
  (void)cap;
  Process* p = (pid.index < kMaxProcesses) ? &processes_[pid.index] : nullptr;
  if (p == nullptr || !p->id.IsValid() || p->id.generation != pid.generation) {
    return Result<void>(ErrorCode::kInvalid);
  }
  p->fault_policy = policy;
  return Result<void>::Ok();
}

Result<void> Kernel::SetPriority(ProcessId pid, uint8_t priority,
                                 const ProcessManagementCapability& cap) {
  (void)cap;
  Process* p = (pid.index < kMaxProcesses) ? &processes_[pid.index] : nullptr;
  if (p == nullptr || !p->id.IsValid() || p->id.generation != pid.generation) {
    return Result<void>(ErrorCode::kInvalid);
  }
  p->priority = priority;
  return Result<void>::Ok();
}

Process* Kernel::GetLiveProcess(ProcessId pid) {
  if (pid.index >= kMaxProcesses) {
    return nullptr;
  }
  Process& p = processes_[pid.index];
  if (!p.id.IsValid() || p.id.generation != pid.generation || !p.IsAlive()) {
    return nullptr;
  }
  return &p;
}

bool Kernel::IsAlive(ProcessId pid) const {
  return const_cast<Kernel*>(this)->GetLiveProcess(pid) != nullptr;
}

ProcStats Kernel::GetProcStats(size_t index) const {
  ProcStats s;
  if (index >= kMaxProcesses) {
    return s;
  }
  const Process& p = processes_[index];
  // Snap (not the raw getters) so the still-open attribution span is included:
  // `prof` from inside a syscall sees service time up to this very cycle.
  CycleAccounting::Snapshot snap = trace_.accounting().Snap(mcu_->CyclesNow());
  s.user_cycles = snap.user[index];
  s.service_cycles = snap.service[index];
  s.syscalls = p.syscall_count;
  s.upcalls = p.upcalls_delivered;
  s.grant_high_water = trace_.grant_high_water(index);
  s.upcall_queue_max = trace_.upcall_queue_max(index);
  s.restarts = p.restart_count;
  s.context_switches = p.context_switches;
  s.timeslice_expirations = p.timeslice_expirations;
  s.priority = p.priority;
  s.queue_level = p.queue_level;
  return s;
}

size_t Kernel::NumLiveProcesses() const {
  size_t n = 0;
  for (const Process& p : processes_) {
    if (p.id.IsValid() && p.IsAlive()) {
      ++n;
    }
  }
  return n;
}

// ---- Memory translation --------------------------------------------------------------

uint8_t* Kernel::TranslateRam(uint32_t addr) {
  uint8_t* p = mcu_->bus().RamWritePtr(addr, 1);
  assert(p != nullptr);
  return p;
}

const uint8_t* Kernel::TranslateMem(uint32_t addr) {
  const uint8_t* p = mcu_->bus().MemReadPtr(addr, 1);
  assert(p != nullptr);
  return p;
}

// ---- Grants ---------------------------------------------------------------------------

uint32_t Kernel::GrantEnterResolve(ProcessId pid, unsigned grant_id, uint32_t size,
                                   uint32_t align, bool* first_time) {
  Process* p = GetLiveProcess(pid);
  if (p == nullptr || grant_id >= Process::kMaxGrants) {
    return 0;
  }
  uint32_t addr = p->grant_ptrs[grant_id];
  if (addr == 0) {
    if (fault_injector_ != nullptr && fault_injector_->ShouldFailGrantAlloc(p->id.index)) {
      return 0;  // injected quota exhaustion: indistinguishable from the real one
    }
    addr = p->AllocateGrantMemory(size, align);
    if (addr == 0) {
      return 0;  // this process exhausted its own quota; nobody else affected
    }
    p->grant_ptrs[grant_id] = addr;
    trace_.RecordGrantAlloc(mcu_->CyclesNow(), p->id.index, size, p->grant_bytes_live);
    *first_time = true;
  } else {
    *first_time = false;
  }
  return addr;
}

// ---- Deferred calls -------------------------------------------------------------------

int Kernel::RegisterDeferredCall(DeferredCallClient* client) {
  assert(num_deferred_ < kMaxDeferredCalls);
  deferred_[num_deferred_] = DeferredEntry{client, false};
  return static_cast<int>(num_deferred_++);
}

void Kernel::SetDeferredCall(int handle) {
  if (handle >= 0 && static_cast<size_t>(handle) < num_deferred_) {
    deferred_[handle].pending = true;
  }
}

bool Kernel::RunDeferredCalls() {
  bool any = false;
  for (size_t i = 0; i < num_deferred_; ++i) {
    if (deferred_[i].pending) {
      deferred_[i].pending = false;
      any = true;
      trace_.RecordDeferredCall(mcu_->CyclesNow(), static_cast<uint32_t>(i));
      deferred_[i].client->HandleDeferredCall();
    }
  }
  return any;
}

// ---- Interrupt servicing --------------------------------------------------------------

void Kernel::ServiceInterrupts() {
  // Bottom halves run here, in the main loop, never in interrupt context (§2.5).
  while (auto line = mcu_->irq().NextPending()) {
    mcu_->Tick(CycleCosts::kInterruptEntry);
    if (*line == kSysTickIrqLine) {
      systick_->DisarmAndClear();
      mcu_->irq().Complete(*line);
      continue;
    }
    if (InterruptService* handler = irq_handlers_[*line]) {
      trace_.RecordIrqDispatch(mcu_->CyclesNow(), *line);
      handler->HandleInterrupt(*line);
    }
    mcu_->irq().Complete(*line);
  }
}

// ---- Upcalls ----------------------------------------------------------------------------

Result<void> Kernel::ScheduleUpcall(ProcessId pid, uint32_t driver, uint32_t sub,
                                    uint32_t arg0, uint32_t arg1, uint32_t arg2) {
  Process* p = GetLiveProcess(pid);
  if (p == nullptr) {
    return Result<void>(ErrorCode::kInvalid);
  }
  QueuedUpcall upcall{driver, sub, {arg0, arg1, arg2}};
  // Latency origin: the IRQ being serviced when a hardware bottom half scheduled
  // this, else the scheduling point itself (kernel/trace.h).
  upcall.origin_cycle = trace_.UpcallOrigin(mcu_->CyclesNow());

  // A process parked in yield-wait-for (or a blocking command) consumes the upcall
  // directly: the values are written into its registers and no handler runs (§3.2).
  if (p->state == ProcessState::kYieldedFor && p->wait_driver == driver &&
      p->wait_sub == sub) {
    DeliverDirectReturn(*p, upcall);
    p->state = ProcessState::kRunnable;
    return Result<void>::Ok();
  }

  // Queue even without a live subscription: a later yield-wait-for may consume the
  // entry as a direct return value (Tock's ReturnValue task). Entries whose
  // subscription is null at *delivery* time are dropped then.
  if (!p->upcall_queue.Push(upcall)) {
    // Make room by evicting entries that could only ever be dropped (their
    // subscription is currently null), then retry once.
    size_t evicted = p->upcall_queue.RemoveIf([&](const QueuedUpcall& u) {
      SubscribeSlot* slot = p->FindSubscribe(u.driver, u.sub_num);
      return slot == nullptr || slot->fn == 0;
    });
    trace_.RecordUpcallsScrubbed(mcu_->CyclesNow(), p->id.index, evicted);
    if (!p->upcall_queue.Push(upcall)) {
      trace_.RecordUpcallDropped(mcu_->CyclesNow(), p->id.index);
      return Result<void>(ErrorCode::kNoMem);
    }
  }
  trace_.RecordUpcallQueued(mcu_->CyclesNow(), p->id.index, driver);
  trace_.NoteUpcallQueueDepth(p->id.index, p->upcall_queue.Size());
  return Result<void>::Ok();
}

bool Kernel::TryDeliverQueuedUpcall(Process& p) {
  while (auto upcall = p.upcall_queue.Pop()) {
    SubscribeSlot* slot = p.FindSubscribe(upcall->driver, upcall->sub_num);
    if (slot == nullptr || slot->fn == 0) {
      // Subscription swapped out after queueing.
      trace_.RecordUpcallDropped(mcu_->CyclesNow(), p.id.index);
      continue;
    }
    InvokeUpcallHandler(p, *upcall, slot->fn, slot->userdata);
    return true;
  }
  return false;
}

void Kernel::InvokeUpcallHandler(Process& p, const QueuedUpcall& upcall, uint32_t fn,
                                 uint32_t userdata) {
  if (p.saved_contexts.IsFull()) {
    // Upcall nesting deeper than the architecture supports: treat as a process
    // error, as real Tock would overflow the process stack. No VM fault is involved,
    // so the recorded cause is empty.
    FaultProcess(p, VmFault{});
    return;
  }
  p.saved_contexts.PushBack(p.ctx);
  p.ctx.x[Reg::kA0] = upcall.args[0];
  p.ctx.x[Reg::kA1] = upcall.args[1];
  p.ctx.x[Reg::kA2] = upcall.args[2];
  p.ctx.x[Reg::kA3] = userdata;
  p.ctx.x[Reg::kRa] = Cpu::kUpcallReturnAddr;
  p.ctx.pc = fn;
  ++p.upcalls_delivered;
  trace_.RecordUpcallDelivered(mcu_->CyclesNow(), p.id.index, upcall.driver,
                               upcall.origin_cycle);
  mcu_->Tick(CycleCosts::kUpcallInvoke);
}

void Kernel::DeliverDirectReturn(Process& p, const QueuedUpcall& upcall) {
  SyscallReturn::Success3U32(upcall.args[0], upcall.args[1], upcall.args[2]).WriteTo(p.ctx);
  p.blocking_command_wait = false;
  ++p.upcalls_delivered;
  trace_.RecordUpcallDelivered(mcu_->CyclesNow(), p.id.index, upcall.driver,
                               upcall.origin_cycle);
}

// ---- Scheduler --------------------------------------------------------------------------

// Decide → run → report: the one place the kernel touches the policy layer. The
// schedulability predicate (HasDeliverableWork) lives in kernel/scheduler.h now, as
// part of the contract every policy must honor.
bool Kernel::RunOneProcess(uint64_t deadline_cycles) {
  SchedulingDecision decision = scheduler_->Next(mcu_->CyclesNow());
  if (decision.process == nullptr) {
    return false;
  }
  Process& p = *decision.process;
  trace_.RecordScheduleDecision(p.id.index);
  StoppedReason reason = ExecuteProcess(p, deadline_cycles, decision.timeslice_cycles);
  scheduler_->ExecutionComplete(p, reason, mcu_->CyclesNow());
  return true;
}

void Kernel::ConfigureMpuFor(const Process& p) {
  // Region 0: the app's flash image, read/execute. Region 1: its accessible RAM.
  mcu_->mpu().ConfigureRegion(0, MpuRegionConfig{p.flash_start, p.flash_size,
                                                 /*read=*/true, /*write=*/false,
                                                 /*execute=*/true, /*enabled=*/true});
  mcu_->mpu().ConfigureRegion(1, MpuRegionConfig{p.ram_start, p.app_break - p.ram_start,
                                                 /*read=*/true, /*write=*/true,
                                                 /*execute=*/false, /*enabled=*/true});
  trace_.RecordMpuReprogram(mcu_->CyclesNow(), p.id.index);
  mcu_->Tick(2 * CycleCosts::kMpuRegionConfig);
}

void Kernel::InitProcessContext(Process& p) {
  p.ctx = CpuContext{};
  p.ctx.pc = p.entry_point;
  p.ctx.x[Reg::kSp] = p.app_break & ~0xFu;  // stack grows down from the break
  p.ctx.x[Reg::kA0] = p.ram_start;
  p.ctx.x[Reg::kA1] = p.app_break - p.ram_start;
  p.ctx.x[Reg::kA2] = p.flash_start;
  p.ctx.x[Reg::kA3] = p.flash_size;
}

uint64_t Kernel::BackoffDelay(const Process& p) const {
  // Exponential: base for the first restart, doubling each subsequent one, capped.
  // restart_count has already been incremented for the restart being scheduled.
  uint64_t base = p.fault_policy.backoff_base_cycles;
  if (base == 0) {
    base = 1;  // zero-cycle events starve the clock; always move time forward
  }
  uint32_t exponent = p.restart_count > 0 ? p.restart_count - 1 : 0;
  if (exponent > 32) {
    exponent = 32;
  }
  uint64_t delay = base << exponent;
  uint64_t cap = p.fault_policy.backoff_cap_cycles;
  if (cap != 0 && delay > cap) {
    delay = cap;
  }
  return delay;
}

void Kernel::FaultProcess(Process& p, const VmFault& fault) {
  uint64_t now = mcu_->CyclesNow();
  p.fault_info = ProcessFaultInfo{fault, now};
  trace_.RecordProcessFault(now, p.id.index, FaultCauseArg(fault));

  bool restart = p.fault_policy.action == FaultAction::kRestart &&
                 p.restart_count < p.fault_policy.max_restarts;
  ReleaseVmCache(p);
  if (!restart) {
    p.state = ProcessState::kFaulted;
    if (p.fault_policy.action == FaultAction::kPanic) {
      panicked_ = true;  // the main loop halts, as a kernel panic would on hardware
    }
    return;
  }

  // Restart policy with budget left. All dynamic kernel state (grants, allows,
  // subscriptions, queued upcalls) is reclaimed *now*, at death (§2.4); only the
  // revival is deferred, so a crash loop pays its backoff out of its own time.
  ++p.restart_count;
  ProcessFaultInfo diagnostics = p.fault_info;
  trace_.RecordGrantFree(now, p.id.index, p.grant_regions_live, p.grant_bytes_live);
  trace_.ClearProcessProfile(p.id.index);
  // Zero the reclaimed grant region (dead memory), releasing its private pages.
  mcu_->bus().ResetRam(p.grant_break, p.ram_start + p.ram_size - p.grant_break);
  p.ResetForRestart();            // bumps the generation: stale ProcessIds go dead
  p.fault_info = diagnostics;     // keep the cause visible while restart-pending
  p.state = ProcessState::kRestartPending;
  if (mpu_configured_for_ == p.id.index) {
    mpu_configured_for_ = 0xFF;  // the break moved; force an MPU reprogram at revive
  }

  p.restart_due_cycle = now + BackoffDelay(p);
  restart_[p.id.index].ArmAt(p.restart_due_cycle);
}

void Kernel::ReviveProcess(uint32_t index) {
  Process& p = processes_[index];
  p.restart_due_cycle = 0;
  p.SetBreak(p.initial_break);
  InitProcessContext(p);
  p.state = ProcessState::kRunnable;
  trace_.RecordProcessRestart(mcu_->CyclesNow(), p.id.index);
  // A sleeping main loop only wakes for interrupts, not bare clock events; nudge the
  // kernel-owned SysTick line so the revived process is scheduled promptly.
  mcu_->irq().Raise(kSysTickIrqLine);
}

void Kernel::ReleaseVmCache(Process& p) {
  if (!p.decode_cache.IsConfigured()) {
    return;  // never dispatched (or already released): nothing allocated
  }
  // Settle the gauge before Release() frees the backing vectors, and fold the
  // blocks that die with the tables into the invalidation counter so every
  // built block is eventually accounted as dropped.
  trace_.RecordVmCacheBytes(-static_cast<int64_t>(p.decode_cache.MemoryBytes()));
  trace_.RecordVmBlocksInvalidated(p.decode_cache.Release());
}

// ---- Process execution --------------------------------------------------------------

StoppedReason Kernel::ExecuteProcess(Process& p, uint64_t deadline_cycles,
                                     std::optional<uint32_t> timeslice_cycles) {
  // Everything in here belongs to this process: its own instructions run under
  // kUser; kernel work on its behalf (switch-in, upcall delivery, syscall service)
  // runs under nested kService scopes.
  AcctScope user_scope(trace_, *mcu_, CycleBucket::kUser, p.id.index);

  if (p.state == ProcessState::kUnstarted) {
    InitProcessContext(p);
    p.state = ProcessState::kRunnable;
  } else if (p.state == ProcessState::kYielded) {
    AcctScope service_scope(trace_, *mcu_, CycleBucket::kService, p.id.index);
    if (!TryDeliverQueuedUpcall(p)) {
      return StoppedReason::kBlocked;  // every queued upcall had been scrubbed
    }
    p.state = ProcessState::kRunnable;
  }

  if (mpu_configured_for_ != p.id.index) {
    AcctScope service_scope(trace_, *mcu_, CycleBucket::kService, p.id.index);
    ConfigureMpuFor(p);
    mpu_configured_for_ = p.id.index;
    mcu_->Tick(CycleCosts::kContextSwitch);
    ++p.context_switches;
    trace_.RecordContextSwitch(mcu_->CyclesNow(), p.id.index);
  }

  // Safe to bind the predecoded cache only now: MPU region 0 maps exactly this
  // process's flash window read+execute (ConfigureMpuFor), which is the fast path's
  // license to skip the per-fetch execute check (vm/decode.h). The tables allocate
  // lazily here, on the process's first dispatch — not at CreateProcess — so slots
  // that never run cost nothing; ReleaseVmCache frees them at every life-end.
  if (!p.decode_cache.IsConfigured()) {
    p.decode_cache.Configure(p.flash_start, p.flash_size);
    trace_.RecordVmCacheBytes(static_cast<int64_t>(p.decode_cache.MemoryBytes()));
  }
  cpu_.set_decode_cache(&p.decode_cache);

  // An absent timeslice is the cooperative contract: ArmCycles(0) schedules
  // nothing, so the process runs until it blocks or other hardware interrupts.
  systick_->ArmCycles(timeslice_cycles.value_or(0));

  // Hoisted out of the batch loop: at -O0 (the Debug presets) each accessor
  // chain is a real call sequence.
  const InterruptController& irq = mcu_->irq();
  SimClock& clock = mcu_->clock();

  // Batched block-boundary accounting (the batch engine below) folds the
  // per-instruction Tick into one Tick(executed) at the batch boundary. That is
  // bit-identical to per-insn ticking only because one VM instruction costs
  // exactly one cycle: a batch of k instructions advances the clock by k either
  // way, and the batch budget never crosses a pending clock event.
  static_assert(CycleCosts::kVmInstruction == 1,
                "batched accounting folds k instructions into Tick(k); a non-unit "
                "instruction cost would need a multiply and a re-derived budget");
  // Cap so the uint32 budget/executed arithmetic in RunBatch can't overflow even
  // with a far-future deadline and an idle event queue.
  constexpr uint64_t kMaxBatchInsns = 1u << 20;

  while (true) {
    if (irq.AnyPending()) {
      bool expired = systick_->Expired();
      if (expired) {
        ++p.timeslice_expirations;
      }
      systick_->DisarmAndClear();
      return expired ? StoppedReason::kTimesliceExpired : StoppedReason::kPreempted;
    }
    // A MainLoop deadline that falls inside the timeslice ends the turn here, and
    // the next dispatch re-arms SysTick with a full timeslice: the caller's
    // deadline spacing (a fleet's epoch) shifts preemption points (ROADMAP item 4).
    if (clock.Now() >= deadline_cycles) {
      systick_->DisarmAndClear();
      return StoppedReason::kDeadline;
    }

    // An armed CPU fault (kernel/fault_injector.h) lands on an exact instruction
    // slot: each batch stops short of the next due countdown, the countdowns
    // absorb the slots the batch executed (the faulting slot and the
    // upcall-return pseudo-step included), and the injector is consulted only on
    // the slot where a fault is due — before it executes or ticks.
    uint64_t until_fault = UINT64_MAX;
    if (fault_injector_ != nullptr) {
      until_fault = fault_injector_->InstructionsUntilFault(p.id.index);
      if (until_fault == 0) {
        if (auto injected = fault_injector_->OnInstruction(p.id.index, p.ctx.pc)) {
          FaultProcess(p, *injected);
          systick_->DisarmAndClear();
          return StoppedReason::kExited;
        }
      }
    }

    // Budget = instructions until the next observable point: the run-deadline,
    // the earliest armed clock channel or the next armed fault.
    // No event can fire strictly inside the batch, so deferring the Tick to the
    // boundary leaves every event firing at the same cycle as per-insn ticking.
    // An overdue event (NextEventAt <= now) degrades to budget 1: it fires after
    // one instruction, exactly like a per-insn loop.
    uint64_t now = clock.Now();
    uint64_t horizon = std::min(clock.NextEventAt(), deadline_cycles);
    uint64_t budget = horizon > now ? horizon - now : 1;
    budget = std::min({budget, until_fault, kMaxBatchInsns});
    Cpu::BatchResult batch = cpu_.RunBatch(p.ctx, static_cast<uint32_t>(budget));
    mcu_->Tick(batch.executed);
    if (fault_injector_ != nullptr) {
      fault_injector_->CountInstructions(p.id.index, batch.executed);
    }
    if (batch.blocks_built != 0 || batch.chain_hits != 0) {
      trace_.RecordVmBlocks(batch.blocks_built, batch.chain_hits);
    }

    switch (batch.status) {
      case StepResult::kOk:
        continue;  // budget exhausted; re-check irq/deadline like every boundary
      case StepResult::kEcall: {
        ++p.syscall_count;
        uint64_t trap_entry = mcu_->CyclesNow();
        trace_.RecordSyscall(trap_entry, p.id.index, p.ctx.x[Reg::kA4]);
        bool keep_running;
        {
          AcctScope service_scope(trace_, *mcu_, CycleBucket::kService, p.id.index);
          mcu_->Tick(CycleCosts::kSyscallEntry);
          keep_running = HandleSyscall(p);
          mcu_->Tick(CycleCosts::kSyscallExit);
        }
        trace_.RecordSyscallLatency(mcu_->CyclesNow() - trap_entry);
        if (!keep_running) {
          systick_->DisarmAndClear();
          // A yield-block (or an exit-restart that left the slot runnable again)
          // gave the CPU up voluntarily; a terminal exit or a mid-command fault
          // did not. MLFQ only demotes involuntary quantum burns, so the
          // distinction matters.
          return p.IsAlive() ? StoppedReason::kBlocked : StoppedReason::kExited;
        }
        continue;
      }
      case StepResult::kUpcallReturn: {
        if (p.saved_contexts.IsEmpty()) {
          // Stray jump to the upcall-return magic address.
          FaultProcess(p, VmFault{});
          systick_->DisarmAndClear();
          return StoppedReason::kExited;
        }
        p.ctx = p.saved_contexts.PopBack();
        // The interrupted yield resumes reporting "an upcall ran".
        p.ctx.x[Reg::kA0] = 1;
        continue;
      }
      case StepResult::kEbreak:
      case StepResult::kFault:
        FaultProcess(p, cpu_.fault());
        systick_->DisarmAndClear();
        return StoppedReason::kExited;
    }
  }
}

// ---- System call dispatch --------------------------------------------------------------

bool Kernel::HandleSyscall(Process& p) {
  Syscall call = Syscall::Decode(p.ctx);
  switch (call.klass) {
    case SyscallClass::kYield:
      return HandleYield(p, call);

    case SyscallClass::kSubscribe:
      HandleSubscribe(p, call).WriteTo(p.ctx);
      return true;

    case SyscallClass::kCommand: {
      SyscallDriver* driver = LookupDriver(call.args[0]);
      if (driver == nullptr) {
        SyscallReturn::Failure(ErrorCode::kNoDevice).WriteTo(p.ctx);
        return true;
      }
      uint32_t generation_before = p.id.generation;
      trace_.NoteCommandIssued(p.id.index, call.args[0], mcu_->CyclesNow());
      SyscallReturn ret = driver->Command(p.id, call.args[1], call.args[2], call.args[3]);
      // A privileged driver may have stopped or restarted the caller mid-command; in
      // either case the old register context is gone and must not be written.
      if (p.id.generation != generation_before || p.state != ProcessState::kRunnable) {
        return false;
      }
      ret.WriteTo(p.ctx);
      return true;
    }

    case SyscallClass::kReadWriteAllow:
      HandleAllow(p, call, /*read_only=*/false).WriteTo(p.ctx);
      return true;

    case SyscallClass::kReadOnlyAllow:
      HandleAllow(p, call, /*read_only=*/true).WriteTo(p.ctx);
      return true;

    case SyscallClass::kMemop:
      HandleMemop(p, call).WriteTo(p.ctx);
      return true;

    case SyscallClass::kExit: {
      ReleaseVmCache(p);  // both variants end this life; the tables die with it
      if (static_cast<ExitVariant>(call.args[0]) == ExitVariant::kRestart) {
        ++p.restart_count;
        trace_.RecordGrantFree(mcu_->CyclesNow(), p.id.index, p.grant_regions_live,
                               p.grant_bytes_live);
        trace_.ClearProcessProfile(p.id.index);
        // Zero the reclaimed grant region (dead memory), releasing its pages.
        mcu_->bus().ResetRam(p.grant_break,
                             p.ram_start + p.ram_size - p.grant_break);
        p.ResetForRestart();
        p.SetBreak(p.initial_break);
        InitProcessContext(p);
        p.state = ProcessState::kRunnable;
        if (mpu_configured_for_ == p.id.index) {
          mpu_configured_for_ = 0xFF;  // the break moved; force an MPU reprogram
        }
        trace_.RecordProcessRestart(mcu_->CyclesNow(), p.id.index);
      } else {
        p.completion_code = call.args[1];
        p.state = ProcessState::kTerminated;
        trace_.RecordProcessExit(mcu_->CyclesNow(), p.id.index, p.completion_code);
      }
      return false;
    }

    case SyscallClass::kBlockingCommand:
      if (!config_.enable_blocking_command) {
        SyscallReturn::Failure(ErrorCode::kNoSupport).WriteTo(p.ctx);
        return true;
      }
      return HandleBlockingCommand(p, call);
  }
  SyscallReturn::Failure(ErrorCode::kNoSupport).WriteTo(p.ctx);
  return true;
}

SyscallReturn Kernel::HandleSubscribe(Process& p, const Syscall& call) {
  uint32_t driver_num = call.args[0];
  uint32_t sub_num = call.args[1];
  uint32_t fn = call.args[2];
  uint32_t userdata = call.args[3];

  SyscallDriver* driver = LookupDriver(driver_num);
  if (driver == nullptr) {
    return SyscallReturn::Failure2U32(ErrorCode::kNoDevice, fn, userdata);
  }
  Result<void> veto = driver->Subscribe(p.id, sub_num);
  if (!veto.ok()) {
    return SyscallReturn::Failure2U32(veto.error(), fn, userdata);
  }
  SubscribeSlot* slot = p.FindOrCreateSubscribe(driver_num, sub_num);
  if (slot == nullptr) {
    return SyscallReturn::Failure2U32(ErrorCode::kNoMem, fn, userdata);
  }

  // Swapping semantics (§3.3.2): the previous upcall is returned to userspace, and
  // queued deliveries of it are scrubbed so the old function can never fire again.
  uint32_t old_fn = slot->fn;
  uint32_t old_userdata = slot->userdata;
  slot->fn = fn;
  slot->userdata = userdata;
  size_t scrubbed = p.ScrubUpcalls(driver_num, sub_num);
  trace_.RecordUpcallsScrubbed(mcu_->CyclesNow(), p.id.index, scrubbed);
  return SyscallReturn::Success2U32(old_fn, old_userdata);
}

SyscallReturn Kernel::HandleAllow(Process& p, const Syscall& call, bool read_only) {
  uint32_t driver_num = call.args[0];
  uint32_t allow_num = call.args[1];
  uint32_t addr = call.args[2];
  uint32_t len = call.args[3];

  SyscallDriver* driver = LookupDriver(driver_num);
  if (driver == nullptr) {
    return SyscallReturn::Failure2U32(ErrorCode::kNoDevice, addr, len);
  }

  // Validate the buffer. Zero-length allows are always legal regardless of address:
  // this is the "un-allow" idiom. §5.1.2's lesson is encoded here — the kernel
  // accepts the arbitrary user pointer but *stores* it only as an opaque (addr, len)
  // pair; it never materializes a zero-length host reference from it.
  if (len > 0) {
    bool valid = read_only ? (p.InAccessibleRam(addr, len) || p.InOwnFlash(addr, len))
                           : p.InAccessibleRam(addr, len);
    if (!valid) {
      return SyscallReturn::Failure2U32(ErrorCode::kInvalid, addr, len);
    }
  }

  if (config_.abi == SyscallAbiVersion::kV1) {
    // Original semantics: hand the raw buffer to the capsule, which owns it from now
    // on (unsound; kept for experiment E6).
    Result<void> res = driver->LegacyAllowV1(p.id, allow_num, addr, len);
    if (!res.ok()) {
      return SyscallReturn::Failure2U32(res.error(), addr, len);
    }
    return SyscallReturn::Success2U32(0, 0);
  }

  // E7: optional runtime overlap rejection (the design §5.1.1 weighs and discards).
  if (!read_only && config_.check_allow_overlap && len > 0) {
    for (const AllowSlot& slot : p.allow_slots) {
      if (slot.in_use && !slot.read_only && slot.len > 0 &&
          !(slot.driver == driver_num && slot.allow_num == allow_num) &&
          addr < slot.addr + slot.len && slot.addr < addr + len) {
        return SyscallReturn::Failure2U32(ErrorCode::kInvalid, addr, len);
      }
    }
  }

  Result<void> veto = read_only ? driver->AllowReadOnly(p.id, allow_num, len)
                                : driver->AllowReadWrite(p.id, allow_num, len);
  if (!veto.ok()) {
    return SyscallReturn::Failure2U32(veto.error(), addr, len);
  }

  AllowSlot* slot = p.FindOrCreateAllow(driver_num, allow_num, read_only);
  if (slot == nullptr) {
    return SyscallReturn::Failure2U32(ErrorCode::kNoMem, addr, len);
  }
  uint32_t old_addr = slot->addr;
  uint32_t old_len = slot->len;
  slot->addr = addr;
  slot->len = len;
  return SyscallReturn::Success2U32(old_addr, old_len);
}

SyscallReturn Kernel::HandleMemop(Process& p, const Syscall& call) {
  switch (static_cast<MemopOp>(call.args[0])) {
    case MemopOp::kBrk:
      if (!p.SetBreak(call.args[1])) {
        return SyscallReturn::Failure(ErrorCode::kNoMem);
      }
      ConfigureMpuFor(p);  // the accessible-RAM region follows the break
      return SyscallReturn::Success();
    case MemopOp::kSbrk: {
      uint32_t old_break = p.app_break;
      if (!p.SetBreak(p.app_break + call.args[1])) {
        return SyscallReturn::Failure(ErrorCode::kNoMem);
      }
      ConfigureMpuFor(p);
      return SyscallReturn::SuccessU32(old_break);
    }
    case MemopOp::kFlashStart:
      return SyscallReturn::SuccessU32(p.flash_start);
    case MemopOp::kFlashEnd:
      return SyscallReturn::SuccessU32(p.flash_start + p.flash_size);
    case MemopOp::kRamStart:
      return SyscallReturn::SuccessU32(p.ram_start);
    case MemopOp::kRamEnd:
      return SyscallReturn::SuccessU32(p.app_break);
  }
  return SyscallReturn::Failure(ErrorCode::kNoSupport);
}

bool Kernel::HandleYield(Process& p, const Syscall& call) {
  switch (static_cast<YieldVariant>(call.args[0])) {
    case YieldVariant::kNoWait: {
      if (TryDeliverQueuedUpcall(p)) {
        return true;  // handler frame installed; a0=1 written on upcall return
      }
      p.ctx.x[Reg::kA0] = 0;  // no upcall ran
      return true;
    }
    case YieldVariant::kWait: {
      if (TryDeliverQueuedUpcall(p)) {
        return true;
      }
      p.state = ProcessState::kYielded;
      return false;
    }
    case YieldVariant::kWaitFor: {
      uint32_t driver = call.args[1];
      uint32_t sub = call.args[2];
      // Consume a matching queued upcall if one already arrived. RemoveFirstIf stops
      // at the first hit instead of compacting the whole queue, and an empty queue
      // (the common case: the completion has not fired yet) costs nothing.
      if (auto matched = p.upcall_queue.RemoveFirstIf([&](const QueuedUpcall& u) {
            return u.driver == driver && u.sub_num == sub;
          })) {
        DeliverDirectReturn(p, *matched);
        return true;
      }
      p.state = ProcessState::kYieldedFor;
      p.wait_driver = driver;
      p.wait_sub = sub;
      return false;
    }
  }
  p.ctx.x[Reg::kA0] = 0;
  return true;
}

bool Kernel::HandleBlockingCommand(Process& p, const Syscall& call) {
  // Ti50-fork semantics (§3.2): driver in a0, command in a1, argument in a2, and the
  // completion subscribe number in a3. One trap replaces the
  // subscribe/command/yield/unsubscribe sequence.
  uint32_t driver_num = call.args[0];
  SyscallDriver* driver = LookupDriver(driver_num);
  if (driver == nullptr) {
    SyscallReturn::Failure(ErrorCode::kNoDevice).WriteTo(p.ctx);
    return true;
  }
  trace_.NoteCommandIssued(p.id.index, driver_num, mcu_->CyclesNow());
  SyscallReturn started = driver->Command(p.id, call.args[1], call.args[2], 0);
  if (static_cast<uint32_t>(started.variant) < static_cast<uint32_t>(ReturnVariant::kSuccess)) {
    started.WriteTo(p.ctx);  // command failed synchronously
    return true;
  }

  // Nearly every blocking command parks: the completion upcall arrives later, via
  // ScheduleUpcall's direct-return path. The old code still walked and recompacted
  // the entire upcall queue here on every command; RemoveFirstIf makes the no-match
  // case (usually an empty queue) free and stops at the first hit otherwise.
  uint32_t sub = call.args[3];
  if (auto matched = p.upcall_queue.RemoveFirstIf([&](const QueuedUpcall& u) {
        return u.driver == driver_num && u.sub_num == sub;
      })) {
    DeliverDirectReturn(p, *matched);
    return true;
  }
  p.state = ProcessState::kYieldedFor;
  p.wait_driver = driver_num;
  p.wait_sub = sub;
  p.blocking_command_wait = true;
  return false;
}

// ---- Main loop ---------------------------------------------------------------------------

bool Kernel::MainLoopStep(const MainLoopCapability& cap, uint64_t deadline_cycles) {
  (void)cap;
  if (panicked_) {
    return false;  // a Panic-policy process faulted: the kernel has halted
  }
  // Attribution anchors at the first loop step (boot cost stays outside the
  // conservation window); the ambient bucket between scopes is kKernel, so
  // main-loop glue and inter-step board activity stay accounted for.
  trace_.accounting().Begin(mcu_->CyclesNow());
  // Host-only gauge: what the paged backing store currently has materialized.
  trace_.SetMemResident(mcu_->bus().resident_bytes());
  // A sleep left open by an earlier deadline ends where the kernel finds work
  // that no interrupt announced (a supervisor restart between runs); otherwise
  // this pass continues it.
  if (trace_.sleeping() && HasWork()) {
    trace_.EndSleep(mcu_->CyclesNow());
  }

  {
    AcctScope irq_scope(trace_, *mcu_, CycleBucket::kIrq);
    ServiceInterrupts();
  }
  bool deferred_ran;
  {
    AcctScope capsule_scope(trace_, *mcu_, CycleBucket::kCapsule);
    deferred_ran = RunDeferredCalls();
  }

  if (RunOneProcess(deadline_cycles)) {
    return true;
  }
  if (deferred_ran || mcu_->irq().AnyPending()) {
    return true;
  }

  // Nothing to do: sleep until the next hardware event (§2.5), without overshooting
  // the caller's deadline.
  uint64_t slept;
  {
    AcctScope idle_scope(trace_, *mcu_, CycleBucket::kIdle);
    slept = mcu_->SleepUntilInterrupt(deadline_cycles);
  }
  trace_.RecordSleep(mcu_->CyclesNow(), slept, mcu_->irq().AnyPending());
  return !mcu_->wedged();
}

void Kernel::MainLoop(uint64_t deadline_cycles, const MainLoopCapability& cap) {
  while (mcu_->CyclesNow() < deadline_cycles) {
    if (!MainLoopStep(cap, deadline_cycles)) {
      return;  // wedged: no runnable process and no future hardware event
    }
  }
}

bool Kernel::HasWork() const {
  if (panicked_) {
    return false;
  }
  if (mcu_->irq().AnyPending()) {
    return true;
  }
  for (size_t i = 0; i < num_deferred_; ++i) {
    if (deferred_[i].pending) {
      return true;
    }
  }
  for (const Process& p : processes_) {
    if (IsSchedulable(p)) {
      return true;
    }
  }
  return false;
}

}  // namespace tock
