// Digest: the 64-bit FNV-1a fingerprint behind every "same results" check
// in trio-sim — golden result digests, fault/recovery replay digests and
// shard-count invariance digests. ActionLog: the timestamped, ordered log
// of executed actions (faults, liveness transitions, failovers) whose
// digest is a replay fingerprint. One definition of each, so a parity
// claim never rests on a private copy of the hash.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace sim {

class Digest {
 public:
  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  /// The offset basis with its last digit missing. The results digests of
  /// fig17_scaleout, fig_failover and fig_fluid and of the recovery, faults
  /// and determinism tests have always started here; determinism_test pins
  /// a value from it and EXPERIMENTS.md records fig_fluid's, so the seed
  /// stays rather than every recorded digest being re-pinned.
  static constexpr std::uint64_t kLegacySeed = 1469598103934665603ull;

  explicit Digest(std::uint64_t start = kOffsetBasis) : h_(start) {}

  Digest& bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= kPrime;
    }
    return *this;
  }
  /// `v` as 8 little-endian bytes, whatever the host byte order.
  Digest& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= kPrime;
    }
    return *this;
  }
  Digest& str(std::string_view s) { return bytes(s.data(), s.size()); }
  /// Each float's IEEE-754 bit pattern through u64() — the shape of the
  /// allreduce results digests.
  Digest& f32_bits(const std::vector<float>& v) {
    for (float g : v) u64(std::bit_cast<std::uint32_t>(g));
    return *this;
  }
  /// A u32 element count, then the elements' raw bytes — the shape of the
  /// jobs layer's tenant digests.
  template <class T>
  Digest& counted(const std::vector<T>& v) {
    const auto n = std::uint32_t(v.size());
    bytes(&n, sizeof n);
    return bytes(v.data(), v.size() * sizeof(T));
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

class ActionLog {
 public:
  struct Entry {
    Time at;
    std::string what;
  };

  void record(Time at, std::string what) {
    entries_.push_back(Entry{at, std::move(what)});
  }
  /// Every recorded action in execution order.
  const std::vector<Entry>& entries() const { return entries_; }
  /// Each entry's time (ns, via u64) then its text, folded from `start` —
  /// equal across deterministic replays.
  std::uint64_t digest(std::uint64_t start = Digest::kOffsetBasis) const {
    Digest d(start);
    for (const Entry& e : entries_) d.u64(std::uint64_t(e.at.ns())).str(e.what);
    return d.value();
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace sim
