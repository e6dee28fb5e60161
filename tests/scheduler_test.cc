// The pluggable scheduler layer (kernel/scheduler.h, kernel/sched/).
//
// The load-bearing test is the parameterized schedulability regression: NO policy,
// under any reachable mix of process states, may ever pick a process that is
// faulted, parked restart-pending, terminated, or yielded with nothing to deliver.
// The seed kernel encoded that invariant implicitly in one private method; now that
// four policies each re-implement selection, the invariant is held explicitly over
// all of them, against randomized state soup. The rest are per-policy behavior
// units: rotation, strict priority + rotation among equals, MLFQ quantum growth /
// demotion / periodic boost, and the capability-gated SetPriority surface.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "board/sim_board.h"
#include "kernel/sched/cooperative.h"
#include "kernel/sched/mlfq.h"
#include "kernel/sched/priority.h"
#include "kernel/sched/round_robin.h"
#include "kernel/scheduler.h"

namespace tock {
namespace {

constexpr size_t kSlots = Kernel::kMaxProcesses;

// Deterministic PRNG for state soup (splitmix64, same construction the fault
// injector uses).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

std::unique_ptr<Scheduler> MakeScheduler(SchedulerPolicy policy,
                                         std::span<Process> procs,
                                         const KernelConfig& config) {
  switch (policy) {
    case SchedulerPolicy::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>(procs, config);
    case SchedulerPolicy::kCooperative:
      return std::make_unique<CooperativeScheduler>(procs, config);
    case SchedulerPolicy::kPriority:
      return std::make_unique<PriorityScheduler>(procs, config);
    case SchedulerPolicy::kMlfq:
      return std::make_unique<MlfqScheduler>(procs, config);
  }
  return nullptr;
}

// Puts slot `i` into a state drawn from the full ProcessState range, including a
// yielded process with and without a deliverable upcall. Roughly half the slots
// are "created" (valid id); the rest simulate never-used table entries.
void RandomizeSlot(Process& p, size_t i, Rng& rng) {
  p.upcall_queue.Clear();
  if (rng.Next() % 4 == 0) {
    p.id = ProcessId{};  // never-created slot
    p.state = ProcessState::kTerminated;
    return;
  }
  p.id = ProcessId{static_cast<uint8_t>(i), static_cast<uint32_t>(rng.Next() % 5 + 1)};
  switch (rng.Next() % 8) {
    case 0:
      p.state = ProcessState::kUnstarted;
      break;
    case 1:
      p.state = ProcessState::kRunnable;
      break;
    case 2:
      p.state = ProcessState::kYielded;
      p.upcall_queue.Push(QueuedUpcall{1, 0, {0, 0, 0}});
      break;
    case 3:
      p.state = ProcessState::kYielded;  // empty queue: NOT schedulable
      break;
    case 4:
      p.state = ProcessState::kYieldedFor;
      break;
    case 5:
      p.state = ProcessState::kFaulted;
      break;
    case 6:
      p.state = ProcessState::kRestartPending;
      break;
    default:
      p.state = ProcessState::kTerminated;
      break;
  }
  p.priority = static_cast<uint8_t>(rng.Next() % 8);
  p.queue_level = static_cast<uint32_t>(rng.Next() % SchedulerConfig::kMlfqLevels);
  p.sched_stamp = rng.Next() % 1000;
}

class EveryPolicy : public ::testing::TestWithParam<SchedulerPolicy> {};

// Satellite 1: the never-schedule-unrunnable regression, over randomized state
// soup, for every policy. Also checks the two boundary conditions: an empty table
// yields a null decision, and a lone schedulable process is always found.
TEST_P(EveryPolicy, NeverSelectsAProcessWithoutDeliverableWork) {
  KernelConfig config;
  config.scheduler.policy = GetParam();
  std::array<Process, kSlots> procs;
  auto sched = MakeScheduler(GetParam(), procs, config);
  ASSERT_NE(sched, nullptr);

  // All-terminated table: nothing to pick.
  EXPECT_EQ(sched->Next(0).process, nullptr);

  Rng rng(0xDECAFBADull + static_cast<uint64_t>(GetParam()));
  uint64_t now = 0;
  for (int round = 0; round < 2000; ++round) {
    for (size_t i = 0; i < kSlots; ++i) {
      RandomizeSlot(procs[i], i, rng);
    }
    now += rng.Next() % 50'000;
    bool any_schedulable = false;
    for (const Process& p : procs) {
      any_schedulable = any_schedulable || IsSchedulable(p);
    }

    SchedulingDecision d = sched->Next(now);
    if (d.process == nullptr) {
      EXPECT_FALSE(any_schedulable) << "round " << round << ": work was available";
      continue;
    }
    ASSERT_TRUE(any_schedulable);
    EXPECT_TRUE(d.process->id.IsValid());
    EXPECT_TRUE(HasDeliverableWork(*d.process))
        << "round " << round << ": picked a process in state "
        << ProcessStateName(d.process->state);
    EXPECT_NE(d.process->state, ProcessState::kFaulted);
    EXPECT_NE(d.process->state, ProcessState::kRestartPending);
    EXPECT_NE(d.process->state, ProcessState::kTerminated);

    // Feed back a plausible reason so stateful policies exercise their updates.
    StoppedReason reason = static_cast<StoppedReason>(rng.Next() % 5);
    sched->ExecutionComplete(*d.process, reason, now);
  }

  // Lone-runnable boundary: whatever internal state the soup left behind, a single
  // schedulable process must be found.
  for (size_t i = 0; i < kSlots; ++i) {
    procs[i].upcall_queue.Clear();
    procs[i].id = ProcessId{static_cast<uint8_t>(i), 1};
    procs[i].state = ProcessState::kFaulted;
  }
  procs[3].state = ProcessState::kRunnable;
  SchedulingDecision d = sched->Next(now + 1);
  ASSERT_NE(d.process, nullptr);
  EXPECT_EQ(d.process->id.index, 3);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EveryPolicy,
                         ::testing::Values(SchedulerPolicy::kRoundRobin,
                                           SchedulerPolicy::kCooperative,
                                           SchedulerPolicy::kPriority,
                                           SchedulerPolicy::kMlfq),
                         [](const ::testing::TestParamInfo<SchedulerPolicy>& info) {
                           // gtest names reject '-': "round-robin" -> "round_robin".
                           std::string name = SchedulerPolicyName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

std::array<Process, kSlots> MakeRunnableTable(size_t live) {
  std::array<Process, kSlots> procs;
  for (size_t i = 0; i < live; ++i) {
    procs[i].id = ProcessId{static_cast<uint8_t>(i), 1};
    procs[i].state = ProcessState::kRunnable;
  }
  return procs;
}

TEST(RoundRobinScheduler, RotatesThroughRunnableProcessesWithTheFixedQuantum) {
  KernelConfig config;
  auto procs = MakeRunnableTable(3);
  RoundRobinScheduler sched(procs, config);
  for (int lap = 0; lap < 3; ++lap) {
    for (uint8_t expect = 0; expect < 3; ++expect) {
      SchedulingDecision d = sched.Next(0);
      ASSERT_NE(d.process, nullptr);
      EXPECT_EQ(d.process->id.index, expect);
      ASSERT_TRUE(d.timeslice_cycles.has_value());
      EXPECT_EQ(*d.timeslice_cycles, config.timeslice_cycles);
    }
  }
}

TEST(CooperativeScheduler, RotatesLikeRoundRobinButNeverArmsATimeslice) {
  KernelConfig config;
  config.scheduler.policy = SchedulerPolicy::kCooperative;
  auto procs = MakeRunnableTable(3);
  CooperativeScheduler sched(procs, config);
  for (uint8_t expect : {0, 1, 2, 0, 1, 2}) {
    SchedulingDecision d = sched.Next(0);
    ASSERT_NE(d.process, nullptr);
    EXPECT_EQ(d.process->id.index, expect);
    EXPECT_FALSE(d.timeslice_cycles.has_value()) << "cooperative must not preempt";
  }
}

TEST(PriorityScheduler, StrictPriorityWithRoundRobinAmongEquals) {
  KernelConfig config;
  config.scheduler.policy = SchedulerPolicy::kPriority;
  auto procs = MakeRunnableTable(4);
  procs[0].priority = 5;
  procs[1].priority = 2;
  procs[2].priority = 2;
  procs[3].priority = 7;
  PriorityScheduler sched(procs, config);

  // The two priority-2 processes alternate; 5 and 7 never run while they exist.
  for (uint8_t expect : {1, 2, 1, 2, 1, 2}) {
    SchedulingDecision d = sched.Next(0);
    ASSERT_NE(d.process, nullptr);
    EXPECT_EQ(d.process->id.index, expect);
  }
  // Blocking both high-priority processes lets the next band through, in order.
  procs[1].state = ProcessState::kYieldedFor;
  procs[2].state = ProcessState::kYieldedFor;
  EXPECT_EQ(sched.Next(0).process->id.index, 0);  // priority 5 beats 7
  EXPECT_EQ(sched.Next(0).process->id.index, 0);  // ...and keeps running alone
  procs[0].state = ProcessState::kTerminated;
  EXPECT_EQ(sched.Next(0).process->id.index, 3);
  // A revived higher-priority process preempts the band immediately.
  procs[2].state = ProcessState::kRunnable;
  EXPECT_EQ(sched.Next(0).process->id.index, 2);
}

TEST(MlfqScheduler, QuantumGrowsWithLevelAndOnlyExpirationDemotes) {
  KernelConfig config;
  config.scheduler.policy = SchedulerPolicy::kMlfq;
  auto procs = MakeRunnableTable(1);
  MlfqScheduler sched(procs, config);
  const auto& mult = config.scheduler.mlfq_quantum_multiplier;

  SchedulingDecision d = sched.Next(0);
  ASSERT_NE(d.process, nullptr);
  EXPECT_EQ(*d.timeslice_cycles, config.timeslice_cycles * mult[0]);

  // Blocking keeps the level; burning the quantum demotes one level at a time and
  // saturates at the bottom.
  sched.ExecutionComplete(procs[0], StoppedReason::kBlocked, 100);
  EXPECT_EQ(procs[0].queue_level, 0u);
  sched.ExecutionComplete(procs[0], StoppedReason::kTimesliceExpired, 200);
  EXPECT_EQ(procs[0].queue_level, 1u);
  EXPECT_EQ(*sched.Next(300).timeslice_cycles, config.timeslice_cycles * mult[1]);
  sched.ExecutionComplete(procs[0], StoppedReason::kTimesliceExpired, 400);
  EXPECT_EQ(procs[0].queue_level, 2u);
  sched.ExecutionComplete(procs[0], StoppedReason::kTimesliceExpired, 500);
  EXPECT_EQ(procs[0].queue_level, 2u) << "bottom level must saturate";
  EXPECT_EQ(*sched.Next(600).timeslice_cycles, config.timeslice_cycles * mult[2]);
}

TEST(MlfqScheduler, HigherLevelIsPreferredAndPeriodicBoostResetsDemotion) {
  KernelConfig config;
  config.scheduler.policy = SchedulerPolicy::kMlfq;
  config.scheduler.mlfq_boost_period_cycles = 10'000;
  auto procs = MakeRunnableTable(2);
  MlfqScheduler sched(procs, config);

  // Demote process 0 to the bottom; process 1 (level 0) then owns the CPU.
  ASSERT_EQ(sched.Next(0).process->id.index, 0);
  sched.ExecutionComplete(procs[0], StoppedReason::kTimesliceExpired, 10);
  sched.ExecutionComplete(procs[0], StoppedReason::kTimesliceExpired, 20);
  ASSERT_EQ(procs[0].queue_level, 2u);
  EXPECT_EQ(sched.Next(30).process->id.index, 1);
  EXPECT_EQ(sched.Next(40).process->id.index, 1);
  EXPECT_EQ(sched.boosts(), 0u);

  // Crossing the boost period resets every level: process 0 competes again.
  SchedulingDecision d = sched.Next(20'000);
  EXPECT_EQ(sched.boosts(), 1u);
  EXPECT_EQ(procs[0].queue_level, 0u);
  EXPECT_EQ(procs[1].queue_level, 0u);
  ASSERT_NE(d.process, nullptr);
  EXPECT_EQ(*d.timeslice_cycles,
            config.timeslice_cycles * config.scheduler.mlfq_quantum_multiplier[0]);
}

// Boost points sit on a fixed grid, anchor + k * period, whatever the spacing of
// the observations (each main-loop pass observes the policy, and a fleet's epoch
// slice sets that spacing): every observation reports one boost per grid point
// passed, so 1,000- and 4,608-cycle spacings boost at the same points.
TEST(MlfqScheduler, BoostsLandOnAFixedGridWhateverTheObservationSpacing) {
  constexpr uint64_t kPeriod = 50'000;
  constexpr uint64_t kSpan = 1'000'000;
  KernelConfig config;
  config.scheduler.policy = SchedulerPolicy::kMlfq;
  config.scheduler.mlfq_boost_period_cycles = kPeriod;
  auto observe = [&](uint64_t spacing) {
    auto procs = MakeRunnableTable(2);
    MlfqScheduler sched(procs, config);
    for (uint64_t now = 0; now <= kSpan; now += spacing) {
      ASSERT_NE(sched.Next(now).process, nullptr);
      EXPECT_EQ(sched.boosts(), now / kPeriod) << "spacing " << spacing << " at " << now;
    }
  };
  observe(1'000);
  observe(4'608);
}

// The capability-gated management surface, mirroring SetFaultPolicy: generation
// checked, works on any created slot, and survives restarts (priority is
// configuration, not incarnation state) while the MLFQ level does not.
TEST(SetPriority, IsGenerationCheckedAndPersistsAcrossRestart) {
  SimBoard board;
  AppSpec app;
  app.name = "app";
  app.source = R"(
_start:
    li a0, 0
    li a4, 0
    ecall
    j _start
)";
  ASSERT_NE(board.installer().Install(app), 0u);
  ASSERT_EQ(board.Boot(), 1);
  Process* p = board.kernel().process(0);
  EXPECT_EQ(p->priority, board.kernel().config().scheduler.default_priority);

  ASSERT_TRUE(board.kernel().SetPriority(p->id, 1, board.pm_cap()).ok());
  EXPECT_EQ(p->priority, 1);

  // A stale generation must be rejected.
  ProcessId stale = p->id;
  stale.generation += 1;
  EXPECT_FALSE(board.kernel().SetPriority(stale, 6, board.pm_cap()).ok());
  EXPECT_EQ(p->priority, 1);

  // Restart: priority sticks, scheduler incarnation state clears.
  p->queue_level = 2;
  p->sched_stamp = 77;
  ASSERT_TRUE(board.kernel().RestartProcess(p->id, board.pm_cap()).ok());
  EXPECT_EQ(p->priority, 1);
  EXPECT_EQ(p->queue_level, 0u);
  EXPECT_EQ(p->sched_stamp, 0u);
}

}  // namespace
}  // namespace tock
