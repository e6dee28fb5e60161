// Signpost-style urban sensing deployment (§2): two solar-powered sensor nodes
// sample the ambient temperature on a duty cycle and radio readings to a gateway
// node, which logs them to its console. The run ends with the per-node energy
// accounting that motivated Tock's asynchronous design.
//
//   $ ./build/examples/signpost
#include <cstdio>

#include "board/fleet.h"
#include "board/sim_board.h"

namespace {

// Sensor node app: sample temperature, pack [node, hi, lo], transmit to node 100,
// sleep a long interval, repeat. Spends almost all its life asleep.
std::string SensorApp(int node_id) {
  char buf[2048];
  std::snprintf(buf, sizeof(buf), R"(
_start:
    mv s0, a0              # ram base: packet staging area
    # stagger nodes so their radio transmissions don't collide at the gateway
    li a0, %d
    call sleep_ticks
loop:
    call temp_read_sync    # a0 = centi-degrees
    mv s1, a0
    # build packet: [node, temp_hi, temp_lo]
    li t0, %d
    sb t0, 0(s0)
    srli t0, s1, 8
    sb t0, 1(s0)
    sb s1, 2(s0)
    # allow_ro(radio, 0, packet, 3)... packet lives in RAM, so read-write allow
    li a0, 0x30001
    li a1, 0
    mv a2, s0
    li a3, 3
    li a4, 4
    ecall
    # command(radio, 1 = tx, dst=100, len=3)
    li a0, 0x30001
    li a1, 1
    li a2, 100
    li a3, 3
    li a4, 2
    ecall
    # yield-wait-for(radio, 0 = tx done)
    li a0, 2
    li a1, 0x30001
    li a2, 0
    li a4, 0
    ecall
    # deep sleep between samples: the whole point of the async kernel
    li a0, 500000
    call sleep_ticks
    j loop
)",
                node_id * 120000, node_id);
  return buf;
}

// Gateway app: listen for packets, print "node=N temp=T" lines.
const char* kGatewayApp = R"(
_start:
    mv s0, a0
    # allow_rw(radio, 1 = rx sink, ram+64, 8)
    li a0, 0x30001
    li a1, 1
    addi a2, s0, 64
    li a3, 8
    li a4, 3
    ecall
    # command(radio, 2 = listen)
    li a0, 0x30001
    li a1, 2
    li a2, 0
    li a3, 0
    li a4, 2
    ecall
loop:
    # yield-wait-for(radio, 1 = packet received)
    li a0, 2
    li a1, 0x30001
    li a2, 1
    li a4, 0
    ecall
    # format "N:HHHH.\n" into ram+128 (node digit, 4 hex temp digits)
    lbu t0, 64(s0)         # node id
    addi t0, t0, 48        # '0' + id
    sb t0, 128(s0)
    li t0, ':'
    sb t0, 129(s0)
    lbu t1, 65(s0)         # temp hi
    lbu t2, 66(s0)         # temp lo
    slli t1, t1, 8
    or t1, t1, t2          # t1 = centi-degrees
    li t3, 4               # 4 hex digits
    addi t4, s0, 133       # write backwards from ram+133
hexloop:
    andi t5, t1, 15
    li t6, 10
    blt t5, t6, digit
    addi t5, t5, 39        # 'a' - 10 - '0'
digit:
    addi t5, t5, 48
    sb t5, 0(t4)
    addi t4, t4, -1
    srli t1, t1, 4
    addi t3, t3, -1
    bnez t3, hexloop
    li t0, '\n'
    sb t0, 134(s0)
    # print 7 bytes from ram+128
    addi a0, s0, 128
    li a1, 7
    call console_print
    j loop
)";

}  // namespace

int main() {
  tock::Fleet fleet;

  tock::BoardConfig sensor1_config;
  sensor1_config.radio_addr = 1;
  sensor1_config.medium = &fleet.medium();
  tock::BoardConfig sensor2_config;
  sensor2_config.radio_addr = 2;
  sensor2_config.medium = &fleet.medium();
  tock::BoardConfig gateway_config;
  gateway_config.radio_addr = 100;
  gateway_config.medium = &fleet.medium();

  tock::SimBoard sensor1(sensor1_config);
  tock::SimBoard sensor2(sensor2_config);
  tock::SimBoard gateway(gateway_config);
  sensor1.temp_hw().SetAmbient(1830);  // 18.3 °C street level
  sensor2.temp_hw().SetAmbient(2410);  // 24.1 °C rooftop
  fleet.AddBoard(&sensor1);
  fleet.AddBoard(&sensor2);
  fleet.AddBoard(&gateway);

  tock::AppSpec s1;
  s1.name = "sense1";
  s1.source = SensorApp(1);
  tock::AppSpec s2;
  s2.name = "sense2";
  s2.source = SensorApp(2);
  tock::AppSpec gw;
  gw.name = "gateway";
  gw.source = kGatewayApp;

  if (sensor1.installer().Install(s1) == 0 || sensor2.installer().Install(s2) == 0 ||
      gateway.installer().Install(gw) == 0) {
    std::fprintf(stderr, "install failed\n");
    return 1;
  }
  sensor1.Boot();
  sensor2.Boot();
  gateway.Boot();

  fleet.Run(5'000'000);  // ~312 ms of city time

  std::printf("---- gateway log (node:centi-degrees-hex) ----\n%s",
              gateway.uart_hw().output().c_str());
  std::printf("----------------------------------------------\n");
  std::printf("%-8s %12s %12s %8s %10s\n", "node", "active cyc", "sleep cyc", "sleep%",
              "energy");
  const char* names[] = {"sensor1", "sensor2", "gateway"};
  tock::SimBoard* boards[] = {&sensor1, &sensor2, &gateway};
  for (int i = 0; i < 3; ++i) {
    tock::Mcu& mcu = boards[i]->mcu();
    std::printf("%-8s %12llu %12llu %7.1f%% %10.0f\n", names[i],
                (unsigned long long)mcu.active_cycles(), (unsigned long long)mcu.sleep_cycles(),
                100.0 * mcu.SleepFraction(), mcu.Energy());
  }
  std::printf("packets: sensor1 sent %llu, sensor2 sent %llu, gateway received %llu\n",
              (unsigned long long)sensor1.radio_hw().packets_sent(),
              (unsigned long long)sensor2.radio_hw().packets_sent(),
              (unsigned long long)gateway.radio_hw().packets_received());
  return 0;
}
