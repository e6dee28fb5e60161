// ERA: 2
#include "board/sim_board.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "capsule/driver_nums.h"
#include "hw/memory_map.h"
#include "kernel/telemetry.h"
#include "tools/trace_export.h"

namespace tock {

const uint8_t SimBoard::kDeviceKey[32] = {
    0x10, 0x32, 0x54, 0x76, 0x98, 0xBA, 0xDC, 0xFE, 0x11, 0x22, 0x33,
    0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE,
    0xFF, 0x00, 0x13, 0x37, 0xC0, 0xDE, 0xFA, 0xCE, 0xB0, 0x0C};

namespace {
InterruptLine Line(Mcu& mcu, MemoryMap::Slot slot) {
  return InterruptLine(&mcu.irq(), static_cast<unsigned>(slot));
}
uint32_t Base(MemoryMap::Slot slot) { return MemoryMap::SlotBase(slot); }

// TOCK_SCHED_POLICY=round-robin|cooperative|priority|mlfq re-points the scheduling
// policy for the whole process, which is how scripts/check_matrix.sh sweeps the test
// suite across policies without editing board code. An explicit non-default choice
// made by the board wins over the environment; unknown names are ignored. A policy
// equal to the default (round-robin) is indistinguishable from "took the default"
// here, so boards that *explicitly* choose round-robin — e.g. one slot of a
// heterogeneous fleet — opt out via BoardConfig::allow_scheduler_env = false.
BoardConfig ApplySchedulerEnv(BoardConfig config) {
  if (config.allow_scheduler_env &&
      config.kernel.scheduler.policy == SchedulerPolicy::kRoundRobin) {
    if (const char* env = std::getenv("TOCK_SCHED_POLICY")) {
      SchedulerPolicy policy;
      if (SchedulerPolicyFromName(env, &policy)) {
        config.kernel.scheduler.policy = policy;
      }
    }
  }
  return config;
}
}  // namespace

SimBoard::BusWiring::BusWiring(SimBoard& board) {
  MemoryBus& bus = board.mcu_.bus();
  bus.AttachDevice(MemoryMap::kUart0, &board.uart_hw_);
  bus.AttachDevice(MemoryMap::kUart1, &board.uart1_hw_);
  bus.AttachDevice(MemoryMap::kAlarm, &board.alarm_hw_);
  bus.AttachDevice(MemoryMap::kSysTick, &board.systick_);
  bus.AttachDevice(MemoryMap::kGpio, &board.gpio_hw_);
  bus.AttachDevice(MemoryMap::kSpi0, &board.spi_hw_);
  bus.AttachDevice(MemoryMap::kRng, &board.rng_hw_);
  bus.AttachDevice(MemoryMap::kAes, &board.aes_hw_);
  bus.AttachDevice(MemoryMap::kSha, &board.sha_hw_);
  bus.AttachDevice(MemoryMap::kFlashCtrl, &board.flash_hw_);
  bus.AttachDevice(MemoryMap::kRadio, &board.radio_hw_);
  bus.AttachDevice(MemoryMap::kTempSensor, &board.temp_hw_);
}

SimBoard::SimBoard(const BoardConfig& config)
    : config_(ApplySchedulerEnv(config)),
      // Hardware peripherals, attached to the bus below.
      uart_hw_(&mcu_.clock(), &mcu_.bus(), Line(mcu_, MemoryMap::kUart0)),
      uart1_hw_(&mcu_.clock(), &mcu_.bus(), Line(mcu_, MemoryMap::kUart1)),
      alarm_hw_(&mcu_.clock(), Line(mcu_, MemoryMap::kAlarm)),
      systick_(&mcu_.clock(), Line(mcu_, MemoryMap::kSysTick)),
      gpio_hw_(Line(mcu_, MemoryMap::kGpio)),
      spi_hw_(&mcu_.clock(), &mcu_.bus(), Line(mcu_, MemoryMap::kSpi0), SpiCsCaps::kActiveLow),
      rng_hw_(&mcu_.clock(), Line(mcu_, MemoryMap::kRng), config.rng_seed),
      aes_hw_(&mcu_.clock(), &mcu_.bus(), Line(mcu_, MemoryMap::kAes)),
      sha_hw_(&mcu_.clock(), &mcu_.bus(), Line(mcu_, MemoryMap::kSha)),
      flash_hw_(&mcu_.clock(), &mcu_.bus(), Line(mcu_, MemoryMap::kFlashCtrl)),
      radio_hw_(&mcu_.clock(), &mcu_.bus(), Line(mcu_, MemoryMap::kRadio), config.radio_addr),
      temp_hw_(&mcu_.clock(), Line(mcu_, MemoryMap::kTempSensor)),
      // Kernel core (config_ rather than config: the scheduler-policy environment
      // override has been applied to config_).
      kernel_(&mcu_, &systick_, config_.kernel),
      fault_injector_(&mcu_, config.fault_injection_seed),
      kram_(MemoryMap::kRamBase, Kernel::kKernelRamReserve),
      // Chip drivers over MMIO.
      chip_alarm_(&mcu_, Base(MemoryMap::kAlarm)),
      chip_uart_(&mcu_, Base(MemoryMap::kUart0), &kram_),
      chip_uart1_(&mcu_, Base(MemoryMap::kUart1), &kram_),
      chip_gpio_(&mcu_, Base(MemoryMap::kGpio)),
      chip_rng_(&mcu_, Base(MemoryMap::kRng)),
      chip_temp_(&mcu_, Base(MemoryMap::kTempSensor)),
      chip_digest_(&mcu_, Base(MemoryMap::kSha), &kram_),
      chip_aes_(&mcu_, Base(MemoryMap::kAes), &kram_),
      chip_spi_(&mcu_, Base(MemoryMap::kSpi0), &kram_),
      chip_radio_(&mcu_, Base(MemoryMap::kRadio), &kram_),
      chip_flash_(&mcu_, Base(MemoryMap::kFlashCtrl), &kram_),
      // Virtualizers.
      valarm_mux_(&chip_alarm_),
      alarm_driver_valarm_(&valarm_mux_),
      vuart_mux_(&chip_uart_),
      console_vuart_(&vuart_mux_),
      // Capsules, handed exactly the handles and buffers they need.
      alarm_driver_(&kernel_, &alarm_driver_valarm_, mem_cap_),
      console_(&kernel_, &console_vuart_, &chip_uart_,
               SubSliceMut(console_tx_storage_.data(), console_tx_storage_.size()),
               SubSliceMut(console_rx_storage_.data(), console_rx_storage_.size()), mem_cap_),
      led_driver_(&chip_gpio_, {kLed0, kLed1}),
      button_driver_(&kernel_, &chip_gpio_, {kButton0, kButton1}),
      gpio_driver_(&chip_gpio_, {2, 3, 4, 5, 6, 7}),
      rng_driver_(&kernel_, &chip_rng_),
      temp_driver_(&kernel_, &chip_temp_),
      hmac_driver_(&kernel_, &chip_digest_,
                   SubSliceMut(hmac_data_storage_.data(), hmac_data_storage_.size()),
                   SubSliceMut(hmac_digest_storage_.data(), hmac_digest_storage_.size())),
      aes_driver_(&kernel_, &chip_aes_,
                  SubSliceMut(aes_data_storage_.data(), aes_data_storage_.size())),
      radio_driver_(&kernel_, &chip_radio_,
                    SubSliceMut(radio_tx_storage_.data(), radio_tx_storage_.size()),
                    SubSliceMut(radio_rx_storage_.data(), radio_rx_storage_.size())),
      process_info_(&kernel_, pm_cap_),
      nv_storage_(&kernel_, &chip_flash_, kNvStorageBase, kNvStorageSize,
                  SubSliceMut(nv_storage_buffer_.data(), nv_storage_buffer_.size())),
      process_console_(&kernel_, &chip_uart1_, &chip_uart1_,
                       SubSliceMut(pconsole_tx_storage_.data(), pconsole_tx_storage_.size()),
                       SubSliceMut(pconsole_rx_storage_.data(), pconsole_rx_storage_.size()),
                       pm_cap_),
      loader_(&kernel_, kAppFlashBase, kAppFlashEnd, pm_cap_, load_cap_),
      installer_(&mcu_, kAppFlashBase, kAppFlashEnd),
      ota_gateway_(&chip_radio_, &valarm_mux_),
      ota_subscriber_(&chip_radio_, &chip_flash_, &loader_, &valarm_mux_) {
  // Chip bring-up (bus attachment happened in BusWiring, before chips constructed).
  chip_uart_.Init();
  chip_uart1_.Init();
  chip_radio_.Init();
  process_console_.Start();

  // Virtualizer client registration.
  valarm_mux_.AddClient(&alarm_driver_valarm_);
  vuart_mux_.AddDevice(&console_vuart_);

  // Interrupt bottom-half routing.
  kernel_.RegisterIrqHandler(MemoryMap::kUart0, &chip_uart_);
  kernel_.RegisterIrqHandler(MemoryMap::kUart1, &chip_uart1_);
  kernel_.RegisterIrqHandler(MemoryMap::kAlarm, &chip_alarm_);
  kernel_.RegisterIrqHandler(MemoryMap::kGpio, &chip_gpio_);
  kernel_.RegisterIrqHandler(MemoryMap::kSpi0, &chip_spi_);
  kernel_.RegisterIrqHandler(MemoryMap::kRng, &chip_rng_);
  kernel_.RegisterIrqHandler(MemoryMap::kAes, &chip_aes_);
  kernel_.RegisterIrqHandler(MemoryMap::kSha, &chip_digest_);
  kernel_.RegisterIrqHandler(MemoryMap::kFlashCtrl, &chip_flash_);
  kernel_.RegisterIrqHandler(MemoryMap::kRadio, &chip_radio_);
  kernel_.RegisterIrqHandler(MemoryMap::kTempSensor, &chip_temp_);

  // System call driver table.
  kernel_.RegisterDriver(DriverNum::kAlarm, &alarm_driver_);
  kernel_.RegisterDriver(DriverNum::kConsole, &console_);
  kernel_.RegisterDriver(DriverNum::kLed, &led_driver_);
  kernel_.RegisterDriver(DriverNum::kButton, &button_driver_);
  kernel_.RegisterDriver(DriverNum::kGpio, &gpio_driver_);
  kernel_.RegisterDriver(DriverNum::kRng, &rng_driver_);
  kernel_.RegisterDriver(DriverNum::kTemperature, &temp_driver_);
  kernel_.RegisterDriver(DriverNum::kHmac, &hmac_driver_);
  kernel_.RegisterDriver(DriverNum::kAes, &aes_driver_);
  kernel_.RegisterDriver(DriverNum::kRadio, &radio_driver_);
  kernel_.RegisterDriver(DriverNum::kProcessInfo, &process_info_);
  kernel_.RegisterDriver(NvStorageDriverNum::kValue, &nv_storage_);

  // Fault-injection harness (inert until a test arms it).
  kernel_.SetFaultInjector(&fault_injector_);

  // Loader + installer crypto wiring.
  loader_.SetDigestEngine(&chip_digest_);
  loader_.SetDeviceKey(kDeviceKey);
  installer_.SetDeviceKey(kDeviceKey);
  process_console_.SetLoader(&loader_);

  if (config_.medium != nullptr) {
    config_.medium->Attach(&radio_hw_);
  }

  // Live telemetry: hand the publisher this kernel and splice it into the
  // trace hook. Pure observation — the sink never blocks or arms events.
  if (config_.telemetry != nullptr) {
    config_.telemetry->AttachKernel(&kernel_);
    kernel_.SetTelemetrySink(config_.telemetry);
  }
}

SimBoard::~SimBoard() {
  // Final snapshot so taps attached after the run see the end-state counters.
  if (config_.telemetry != nullptr) {
    config_.telemetry->PublishSnapshot(mcu_.CyclesNow());
    kernel_.SetTelemetrySink(nullptr);
    config_.telemetry->AttachKernel(nullptr);
  }
  if (!config_.trace_export_path.empty()) {
    WriteChromeTrace(kernel_, config_.trace_export_path);
  }
}

void SimBoard::Run(uint64_t cycles) {
  if (config_.trace_export_flush_cycles == 0) {
    kernel_.MainLoop(mcu_.CyclesNow() + cycles, main_cap_);
    return;
  }
  // Step against the FULL deadline and flush whenever the post-step clock
  // passes the next flush point. Because no step ever sees a shortened
  // deadline, idle sleeps fast-forward exactly as in an unflushed run and the
  // recorded trace is identical — flushing only chooses when the artifact is
  // rewritten, never how the simulation advances.
  const uint64_t deadline = mcu_.CyclesNow() + cycles;
  uint64_t next_flush = mcu_.CyclesNow() + config_.trace_export_flush_cycles;
  while (mcu_.CyclesNow() < deadline) {
    if (!kernel_.MainLoopStep(main_cap_, deadline)) {
      break;  // wedged: nothing runnable and no future hardware event
    }
    if (mcu_.CyclesNow() >= next_flush) {
      FlushTraceArtifact();
      next_flush = mcu_.CyclesNow() + config_.trace_export_flush_cycles;
    }
  }
  FlushTraceArtifact();
}

void SimBoard::OnEpochBarrier() {
  if (config_.telemetry != nullptr) {
    config_.telemetry->MaybePublishSnapshot(mcu_.CyclesNow());
  }
  if (config_.trace_export_flush_cycles != 0 &&
      mcu_.CyclesNow() >= next_trace_flush_cycle_) {
    FlushTraceArtifact();
    next_trace_flush_cycle_ = mcu_.CyclesNow() + config_.trace_export_flush_cycles;
  }
}

void SimBoard::FlushTraceArtifact() {
  if (config_.trace_export_path.empty()) {
    return;
  }
  // Write-complete-then-rename: an observer (or a kill between flushes) always
  // finds a fully closed JSON document, never a truncated array.
  const std::string tmp = config_.trace_export_path + ".tmp";
  if (WriteChromeTrace(kernel_, tmp)) {
    std::rename(tmp.c_str(), config_.trace_export_path.c_str());
  }
}

bool SimBoard::ExportTrace(const std::string& path) {
  return WriteChromeTrace(kernel_, path);
}

int SimBoard::Boot() {
  int created = 0;
  if (config_.kernel.loader == LoaderMode::kSynchronous) {
    created = loader_.LoadAllSync();
  } else if (loader_.StartAsyncLoad().ok()) {
    // Drive the kernel until the verification state machine settles. Generous
    // bound: signature checks are tens of thousands of cycles per app.
    uint64_t deadline = mcu_.CyclesNow() + 50'000'000;
    while (!loader_.Done() && mcu_.CyclesNow() < deadline) {
      if (!kernel_.MainLoopStep(main_cap_)) {
        break;
      }
    }
    created = loader_.created_count();
  }

  // OTA roles come alive only after boot: a subscriber's default staging address
  // is the first free app slot, which is known only once the baseline apps are
  // installed and the boot scan has run. Activation steals the radio (and, for
  // subscribers, flash) client slots from the syscall capsules — OTA boards give
  // those peripherals to the update plane.
  if (config_.ota.role == OtaRole::kGateway) {
    ota_gateway_.Activate();
  } else if (config_.ota.role == OtaRole::kSubscriber) {
    uint32_t staging =
        config_.ota.staging_addr != 0 ? config_.ota.staging_addr : installer_.next_addr();
    ota_staging_addr_ = staging;
    ota_subscriber_.Activate(staging, staging < kAppFlashEnd ? kAppFlashEnd - staging : 0);
  }
  return created;
}

}  // namespace tock
