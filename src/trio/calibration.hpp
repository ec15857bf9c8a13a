// Calibration constants for the cycle-approximate Trio model.
//
// Values marked [paper] are stated in the SIGCOMM'22 paper; values marked
// [cal] are free parameters of the software model, set so that the
// packet-level simulator reproduces the paper's measured curves (Figures
// 14-16). See EXPERIMENTS.md for the calibration discussion.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace trio {

/// Largest tail chunk one MQSS read returns (paper Fig 10); the datapath
/// sizes its fixed chunk buffers from it.
inline constexpr std::size_t kMaxTailChunkBytes = 64;

struct Calibration {
  // --- Clocks -------------------------------------------------------------
  /// [paper §6.3] "a 1 GHz clock speed". With 1 GHz, 1 cycle == 1 ns.
  std::int64_t clock_hz = 1'000'000'000;

  // --- PPE ----------------------------------------------------------------
  /// [cal] PPEs per PFE. The paper quotes 160 PPEs for generation 6; the
  /// MPC10E line card in the testbed is generation 5. The effective
  /// parallelism here is set so that the per-PFE aggregation throughput
  /// plateau lands where Figure 16(b) measured it (~150 Gbps).
  int ppes_per_pfe = 16;
  /// [paper §2.2] "each PPE supports tens of threads".
  int threads_per_ppe = 20;
  /// [paper §2.2] "each instruction takes multiple clock cycles". [cal]
  /// Effective per-instruction latency seen by one thread, including
  /// operand fetch and average memory-wait; tuned against Figure 15.
  sim::Duration instr_latency = sim::Duration::nanos(24);
  /// One instruction issued per PPE per cycle (threads interleave).
  sim::Duration issue_interval = sim::Duration::nanos(1);
  /// [paper §2.2] local memory per thread: 1.25 KBytes.
  std::size_t lmem_bytes = 1280;
  /// [paper §2.2] 32 general-purpose 64-bit registers per thread.
  int gprs_per_thread = 32;
  /// [paper §2.2] call-return nesting depth.
  int max_call_depth = 8;

  // --- Dispatch / head-tail split ------------------------------------------
  /// [paper Fig 10] head = first 192 bytes.
  std::size_t head_bytes = 192;
  /// [cal] Fixed per-packet cost between arrival at the PFE and the
  /// thread's first instruction: the ingress MAC/pre-classifier path,
  /// the hardware dispatch decision, and the DMA of the head into thread
  /// LMEM. Calibrated against the fixed component of Figure 15 (the
  /// paper's latency is measured from PFE arrival, so it includes this
  /// whole path).
  sim::Duration dispatch_overhead = sim::Duration::nanos(5000);
  /// Packets the Dispatch module can hold while all threads are busy;
  /// overflow is dropped (ingress backpressure boundary).
  std::size_t dispatch_queue_limit = 65536;

  // --- Shared Memory System -------------------------------------------------
  /// [paper §2.3] on-chip SRAM: ~70 ns access latency from the PPE.
  sim::Duration sram_latency = sim::Duration::nanos(70);
  /// [cal] off-chip DRAM cache: on-chip SRAM-like banks in front of DRAM.
  sim::Duration dram_cache_latency = sim::Duration::nanos(120);
  /// [paper §2.3] off-chip DRAM: ~300-400 ns from the PPE.
  sim::Duration dram_latency = sim::Duration::nanos(350);
  /// [paper §6.3] Trio-ML uses 12 read-modify-write engines; we give the
  /// SMS 12 banks, one engine each.
  int sms_banks = 12;
  /// [paper §2.3] each RMW engine processes 8 bytes per clock cycle.
  std::size_t rmw_bytes_per_cycle = 8;
  /// [paper §6.3] "each add operation takes two cycles".
  int rmw_add_cycles = 2;
  /// Bank interleave granule; a 64-byte request touches one bank.
  std::size_t bank_interleave = 64;
  /// [paper §2.3] software-configurable region sizes.
  std::size_t sram_bytes = 4u << 20;          // 2-8 MB typical -> 4 MB
  std::size_t dram_cache_bytes = 16u << 20;   // 8-24 MB typical -> 16 MB
  std::uint64_t dram_bytes = 4ull << 30;      // several GB -> 4 GB

  // --- Crossbar -------------------------------------------------------------
  /// [cal] crossbar transit latency, each direction. The paper states the
  /// crossbar itself never limits memory performance, so no contention is
  /// modelled here; backpressure comes from the bank engines.
  sim::Duration crossbar_latency = sim::Duration::nanos(25);

  // --- Memory & Queueing Subsystem -------------------------------------------
  /// [cal] latency of a tail-chunk read (request across the crossbar,
  /// packet-buffer access, data return). Max chunk is 64 B [paper Fig 10].
  sim::Duration tail_read_latency = sim::Duration::nanos(400);
  std::size_t tail_chunk_bytes = 64;
  /// [cal] latency of writing a 256 B chunk of a new packet's tail into
  /// the packet buffer (result-generation loop, Fig 10).
  sim::Duration pmem_write_latency = sim::Duration::nanos(300);
  std::size_t pmem_chunk_bytes = 256;

  // --- Hash block -------------------------------------------------------------
  /// [cal] hardware hash lookup/insert/delete service latency (bucket walk
  /// in SRAM-class memory), excluding crossbar transit.
  sim::Duration hash_op_latency = sim::Duration::nanos(90);

  // --- Fabric -------------------------------------------------------------
  /// [cal] PFE-to-PFE one-way latency through the interconnection fabric.
  sim::Duration fabric_latency = sim::Duration::micros(1);
  /// Fabric per-PFE injection bandwidth, Gbps.
  double fabric_gbps = 400.0;

  // --- Timers -------------------------------------------------------------
  /// [paper §5] "tens of high-resolution timers"; resolution allows
  /// hundreds of phase-offset threads.
  sim::Duration timer_resolution = sim::Duration::micros(1);

  /// Per-generation presets (paper §2.1/§8: the first generation had 16
  /// PPEs and 40 Gbps per PFE across multiple chips; the sixth has 160
  /// PPEs and 1.6 Tbps in a single chip; RMW engines "increased in each
  /// generation ... so that the memory bandwidth increases with the
  /// packet processing bandwidth"). The default-constructed Calibration
  /// corresponds to the testbed's generation-5 MPC10E model.
  static Calibration generation(int gen);
  /// Nominal per-PFE packet-processing bandwidth for `gen`, Gbps.
  static double generation_bandwidth_gbps(int gen);
};

}  // namespace trio
