// External transactions (XTXNs): requests a PPE thread issues over the
// crossbar to other blocks — the Shared Memory System, the hardware hash
// block, the Memory & Queueing Subsystem (packet tails) — and their
// replies (paper §3.1 "External transaction").
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>

#include "sim/inline_callback.hpp"

namespace trio {

enum class XtxnOp : std::uint8_t {
  // Shared Memory System (read-modify-write engines, §2.3).
  kRead,          // addr, len (8..64 B, 8 B steps) -> data
  kWrite,         // addr, data
  kCounterInc,    // addr (16 B Packet/Byte counter), arg0 = packet bytes
  kPolicerCheck,  // addr (policer record), arg0 = packet bytes -> value: 1 conform / 0 exceed
  kFetchAdd32,    // addr, arg0 = addend -> value: previous 32-bit value
  kFetchAnd64,    // addr, arg0 = mask   -> value: previous value
  kFetchOr64,     // addr, arg0 = mask   -> value: previous value
  kFetchXor64,    // addr, arg0 = mask   -> value: previous value
  kFetchClear64,  // addr, arg0 = mask   -> value: previous value (clears bits)
  kFetchSwap64,   // addr, arg0 = new    -> value: previous value
  kMaskedWrite64, // addr, arg0 = value, arg1 = mask
  kAddVec32,      // addr, data = packed 32-bit little-endian addends
  kMinVec32,      // addr, data = packed 32-bit words; element-wise unsigned min
  kVoteVec32,     // addr = split-plane majority buffer (candidates at
                  // addr[0..len), counts at addr[len..2*len)), data = packed
                  // 32-bit words; streaming Boyer-Moore majority per element
  // Hardware hash block (§5): 64-bit key -> 64-bit value records with a
  // 'Recently Referenced' flag.
  kHashLookup,    // arg0 = key -> ok, value
  kHashInsert,    // arg0 = key, arg1 = value -> ok (false if key exists)
  kHashDelete,    // arg0 = key, arg1 = expected value (0 = any) -> ok
  kHashScanStep,  // arg0 = partition, arg1 = max records; check-and-clear
                  // REF over one partition slice; reply data = aged keys
  // Memory & Queueing Subsystem.
  kTailRead,      // addr = offset into this thread's packet tail, len <= 64
  kPmemWrite,     // len = bytes appended to the tail under construction
                  // (the bytes themselves stay with the emitting program)
};

/// True for ops whose reply carries no payload the issuing program needs,
/// so they may be issued fire-and-forget (async without a reply event).
constexpr bool xtxn_is_posted(XtxnOp op) {
  switch (op) {
    case XtxnOp::kWrite:
    case XtxnOp::kCounterInc:
    case XtxnOp::kAddVec32:
    case XtxnOp::kMinVec32:
    case XtxnOp::kVoteVec32:
    case XtxnOp::kMaskedWrite64:
    case XtxnOp::kPmemWrite:
      return true;
    default:
      return false;
  }
}

/// Stable lower-case name for telemetry (trace span / counter labels).
constexpr const char* xtxn_op_name(XtxnOp op) {
  switch (op) {
    case XtxnOp::kRead: return "read";
    case XtxnOp::kWrite: return "write";
    case XtxnOp::kCounterInc: return "counter_inc";
    case XtxnOp::kPolicerCheck: return "policer_check";
    case XtxnOp::kFetchAdd32: return "fetch_add32";
    case XtxnOp::kFetchAnd64: return "fetch_and64";
    case XtxnOp::kFetchOr64: return "fetch_or64";
    case XtxnOp::kFetchXor64: return "fetch_xor64";
    case XtxnOp::kFetchClear64: return "fetch_clear64";
    case XtxnOp::kFetchSwap64: return "fetch_swap64";
    case XtxnOp::kMaskedWrite64: return "masked_write64";
    case XtxnOp::kAddVec32: return "add_vec32";
    case XtxnOp::kMinVec32: return "min_vec32";
    case XtxnOp::kVoteVec32: return "vote_vec32";
    case XtxnOp::kHashLookup: return "hash_lookup";
    case XtxnOp::kHashInsert: return "hash_insert";
    case XtxnOp::kHashDelete: return "hash_delete";
    case XtxnOp::kHashScanStep: return "hash_scan_step";
    case XtxnOp::kTailRead: return "tail_read";
    case XtxnOp::kPmemWrite: return "pmem_write";
  }
  return "unknown";
}

/// An XTXN payload. Up to 64 bytes -- one bank-interleave granule, which
/// covers every add slice, record write and tail chunk the datapath
/// issues -- live inline, so building a request or reply does not touch
/// the allocator. A larger payload spills to one heap block, whose
/// capacity the buffer then keeps for reuse.
class XtxnBytes {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  XtxnBytes() = default;
  XtxnBytes(const XtxnBytes& other) { assign(other); }
  XtxnBytes(XtxnBytes&& other) noexcept { take(other); }
  XtxnBytes& operator=(const XtxnBytes& other) {
    if (this != &other) assign(other);
    return *this;
  }
  XtxnBytes& operator=(XtxnBytes&& other) noexcept {
    if (this != &other) {
      heap_.reset();
      take(other);
    }
    return *this;
  }
  XtxnBytes& operator=(std::initializer_list<std::uint8_t> init) {
    assign(std::span<const std::uint8_t>(init.begin(), init.size()));
    return *this;
  }

  std::uint8_t* data() { return heap_ ? heap_.get() : inline_; }
  const std::uint8_t* data() const { return heap_ ? heap_.get() : inline_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint8_t* begin() { return data(); }
  std::uint8_t* end() { return data() + size_; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size_; }
  std::uint8_t& operator[](std::size_t i) { return data()[i]; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }

  void clear() { size_ = 0; }
  void assign(std::span<const std::uint8_t> src) {
    // A source longer than the capacity cannot lie inside this buffer, so
    // growing first never frees it; a shorter one may, hence memmove.
    if (src.size() > capacity_) grow(src.size(), 0);
    if (!src.empty()) std::memmove(data(), src.data(), src.size());
    size_ = src.size();
  }
  void assign(std::size_t n, std::uint8_t value) {
    size_ = 0;
    resize(n, value);
  }
  void resize(std::size_t n, std::uint8_t fill = 0) {
    if (n > capacity_) grow(n, size_);
    if (n > size_) std::memset(data() + size_, fill, n - size_);
    size_ = n;
  }

  friend bool operator==(const XtxnBytes& a, const XtxnBytes& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  /// Moves to a heap block of n bytes, keeping the first `keep` bytes.
  void grow(std::size_t n, std::size_t keep) {
    auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(n);
    if (keep != 0) std::memcpy(grown.get(), data(), keep);
    heap_ = std::move(grown);
    capacity_ = n;
  }
  void take(XtxnBytes& other) noexcept {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.heap_) {
      heap_ = std::move(other.heap_);
    } else if (size_ != 0) {
      std::memcpy(inline_, other.inline_, size_);
    }
    other.size_ = 0;
    other.capacity_ = kInlineBytes;
  }

  std::unique_ptr<std::uint8_t[]> heap_;  // null while the bytes fit inline
  std::size_t size_ = 0;
  std::size_t capacity_ = kInlineBytes;
  std::uint8_t inline_[kInlineBytes];
};

struct XtxnRequest {
  XtxnOp op{};
  std::uint64_t addr = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint32_t len = 0;
  XtxnBytes data;
};

struct XtxnReply {
  bool ok = true;
  std::uint64_t value = 0;
  XtxnBytes data;

  /// Back to a fresh reply, keeping any spilled payload capacity.
  void reset() {
    ok = true;
    value = 0;
    data.clear();
  }
};

// Engines apply a request in arrival order, so they fill the issuer's
// reply slot at issue time and fire this callback at the reply time. It
// captures only the issuer's (this, slot, issue-time, op) -- 24 bytes --
// and fits the 32-byte inline budget; larger captures from tests or
// applications fall back to one heap cell.
using XtxnCallback = sim::InlineFunction<void(), 32>;

}  // namespace trio
