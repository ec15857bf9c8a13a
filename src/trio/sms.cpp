#include "trio/sms.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "trio/trace_rows.hpp"

namespace trio {

namespace {

template <typename T>
T load_le(const std::uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (int i = sizeof(T) - 1; i >= 0; --i) v = static_cast<T>(v << 8 | p[i]);
  }
  return v;
}

template <typename T>
void store_le(std::uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

// Policer record layout (32 bytes, little-endian u64s):
//   +0  rate (bytes/sec)   +8  burst (bytes)
//   +16 tokens (bytes)     +24 last refill time (ns)
constexpr std::size_t kPolicerBytes = 32;

}  // namespace

SharedMemorySystem::SharedMemorySystem(sim::Simulator& simulator,
                                       const Calibration& cal)
    : sim_(simulator), cal_(cal) {
  banks_.resize(static_cast<std::size_t>(cal_.sms_banks));
  // One tag entry per cache line of the DRAM cache.
  dram_cache_tags_.assign(cal_.dram_cache_bytes / cal_.bank_interleave,
                          ~0ull);
  dram_brk_ = dram_base() + 64;
  const std::uint64_t pages =
      (dram_base() + cal_.dram_bytes + kPageBytes - 1) / kPageBytes;
  leaves_.resize(static_cast<std::size_t>((pages + kPagesPerLeaf - 1) /
                                          kPagesPerLeaf));
}

void SharedMemorySystem::instrument(telemetry::Telemetry& telem, int pid,
                                    const std::string& prefix) {
  ops_ctr_ = telem.metrics.counter(prefix + "ops");
  contended_ctr_ = telem.metrics.counter(prefix + "rmw_contended");
  queue_delay_hist_ = telem.metrics.histogram(prefix + "queue_delay_ns");
  char label[32];
  for (std::size_t k = 0; k < banks_.size(); ++k) {
    std::snprintf(label, sizeof(label), "bank%02zu", k);
    banks_[k].busy_ctr =
        telem.metrics.counter(prefix + label + ".busy_cycles");
  }
  if (telem.tracer.enabled()) {
    tracer_ = &telem.tracer;
    trace_pid_ = pid;
    for (std::size_t k = 0; k < banks_.size(); ++k) {
      std::snprintf(label, sizeof(label), "sms.bank%02zu", k);
      banks_[k].trace_name = label;
      telem.tracer.set_thread_name(
          pid, trace_rows::kSmsBankBase + static_cast<int>(k), label);
    }
  }
}

std::uint8_t* SharedMemorySystem::page(std::uint64_t addr) {
  const std::uint64_t pn = addr / kPageBytes;
  std::unique_ptr<Leaf>& leaf = leaves_[pn / kPagesPerLeaf];
  if (!leaf) leaf = std::make_unique<Leaf>();
  std::unique_ptr<Page>& pg = (*leaf)[pn % kPagesPerLeaf];
  if (!pg) pg = std::make_unique<Page>();  // value-initialised: zeroes
  return pg->data();
}

std::uint8_t* SharedMemorySystem::page_if_present(std::uint64_t addr) const {
  const std::uint64_t pn = addr / kPageBytes;
  if (pn / kPagesPerLeaf >= leaves_.size()) return nullptr;
  const std::unique_ptr<Leaf>& leaf = leaves_[pn / kPagesPerLeaf];
  if (!leaf) return nullptr;
  const std::unique_ptr<Page>& pg = (*leaf)[pn % kPagesPerLeaf];
  return pg ? pg->data() : nullptr;
}

std::uint8_t* SharedMemorySystem::span_in_page(std::uint64_t addr,
                                               std::size_t len) {
  const std::size_t off = addr % kPageBytes;
  return off + len <= kPageBytes ? page(addr) + off : nullptr;
}

void SharedMemorySystem::check_addr(std::uint64_t addr,
                                    std::size_t len) const {
  const std::uint64_t end = dram_base() + cal_.dram_bytes;
  if (addr + len > end) {
    throw std::out_of_range("SMS access beyond address space: addr=" +
                            std::to_string(addr) +
                            " len=" + std::to_string(len));
  }
}

std::uint8_t SharedMemorySystem::peek_u8(std::uint64_t addr) const {
  const std::uint8_t* p = page_if_present(addr);
  return p ? p[addr % kPageBytes] : 0;
}

template <typename T>
T SharedMemorySystem::peek_word(std::uint64_t addr) const {
  const std::size_t off = addr % kPageBytes;
  if (off + sizeof(T) <= kPageBytes) {
    const std::uint8_t* p = page_if_present(addr);
    return p ? load_le<T>(p + off) : 0;
  }
  T v = 0;  // straddles two pages
  for (int i = sizeof(T) - 1; i >= 0; --i) {
    v = static_cast<T>(v << 8 | peek_u8(addr + static_cast<std::uint64_t>(i)));
  }
  return v;
}

template <typename T>
void SharedMemorySystem::poke_word(std::uint64_t addr, T v) {
  check_addr(addr, sizeof(T));
  if (std::uint8_t* p = span_in_page(addr, sizeof(T))) {
    store_le(p, v);
    return;
  }
  for (std::size_t i = 0; i < sizeof(T); ++i) {  // straddles two pages
    poke_u8(addr + i, static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t SharedMemorySystem::peek_u32(std::uint64_t addr) const {
  return peek_word<std::uint32_t>(addr);
}

std::uint64_t SharedMemorySystem::peek_u64(std::uint64_t addr) const {
  return peek_word<std::uint64_t>(addr);
}

void SharedMemorySystem::poke_u8(std::uint64_t addr, std::uint8_t v) {
  check_addr(addr, 1);
  page(addr)[addr % kPageBytes] = v;
}

void SharedMemorySystem::poke_u32(std::uint64_t addr, std::uint32_t v) {
  poke_word(addr, v);
}

void SharedMemorySystem::poke_u64(std::uint64_t addr, std::uint64_t v) {
  poke_word(addr, v);
}

void SharedMemorySystem::poke_bytes(std::uint64_t addr,
                                    std::span<const std::uint8_t> data) {
  check_addr(addr, data.size());
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t a = addr + done;
    const std::size_t n =
        std::min(data.size() - done, kPageBytes - a % kPageBytes);
    std::memcpy(page(a) + a % kPageBytes, data.data() + done, n);
    done += n;
  }
}

void SharedMemorySystem::read_bytes(std::uint64_t addr, std::uint8_t* out,
                                    std::size_t len) const {
  std::size_t done = 0;
  while (done < len) {
    const std::uint64_t a = addr + done;
    const std::size_t n = std::min(len - done, kPageBytes - a % kPageBytes);
    if (const std::uint8_t* p = page_if_present(a)) {
      std::memcpy(out + done, p + a % kPageBytes, n);
    } else {
      std::memset(out + done, 0, n);
    }
    done += n;
  }
}

std::vector<std::uint8_t> SharedMemorySystem::peek_bytes(
    std::uint64_t addr, std::size_t len) const {
  std::vector<std::uint8_t> out(len);
  read_bytes(addr, out.data(), len);
  return out;
}

void SharedMemorySystem::clear(std::uint64_t addr, std::size_t len) {
  check_addr(addr, len);
  std::size_t done = 0;
  while (done < len) {
    const std::uint64_t a = addr + done;
    const std::size_t n = std::min(len - done, kPageBytes - a % kPageBytes);
    if (std::uint8_t* p = page_if_present(a)) {
      std::memset(p + a % kPageBytes, 0, n);
    }
    done += n;
  }
}

template <typename Fn>
void SharedMemorySystem::rmw_words32(std::uint64_t addr, std::size_t n,
                                     Fn&& fn) {
  if (n == 0) return;
  if (std::uint8_t* p = span_in_page(addr, n * 4)) {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t w = load_le<std::uint32_t>(p + i * 4);
      fn(w, i);
      store_le(p + i * 4, w);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {  // the slice straddles a page
    const std::uint64_t a = addr + i * 4;
    std::uint32_t w = peek_u32(a);
    fn(w, i);
    poke_u32(a, w);
  }
}

void SharedMemorySystem::configure_policer(std::uint64_t addr,
                                           const PolicerConfig& config) {
  poke_u64(addr, config.rate_bytes_per_sec);
  poke_u64(addr + 8, config.burst_bytes);
  poke_u64(addr + 16, config.burst_bytes);  // bucket starts full
  poke_u64(addr + 24, static_cast<std::uint64_t>(sim_.now().ns()));
}

std::uint64_t SharedMemorySystem::alloc_sram(std::size_t bytes,
                                             std::size_t align) {
  std::uint64_t addr = (sram_brk_ + align - 1) / align * align;
  if (addr + bytes > cal_.sram_bytes) {
    throw std::runtime_error("SMS: on-chip SRAM exhausted");
  }
  sram_brk_ = addr + bytes;
  return addr;
}

std::uint64_t SharedMemorySystem::alloc_dram(std::size_t bytes,
                                             std::size_t align) {
  std::uint64_t addr = (dram_brk_ + align - 1) / align * align;
  if (addr + bytes > dram_base() + cal_.dram_bytes) {
    throw std::runtime_error("SMS: DRAM exhausted");
  }
  dram_brk_ = addr + bytes;
  return addr;
}

void SharedMemorySystem::set_tenant_quota(std::uint8_t tenant,
                                          std::uint64_t bytes) {
  tenant_accounts_[tenant].quota = bytes;
}

bool SharedMemorySystem::reserve_tenant_bytes(std::uint8_t tenant,
                                              std::uint64_t bytes) {
  TenantAccount& acct = tenant_accounts_[tenant];
  if (acct.used + bytes > acct.quota) return false;
  acct.used += bytes;
  return true;
}

void SharedMemorySystem::release_tenant_bytes(std::uint8_t tenant,
                                              std::uint64_t bytes) {
  TenantAccount& acct = tenant_accounts_[tenant];
  acct.used = bytes > acct.used ? 0 : acct.used - bytes;
}

std::uint64_t SharedMemorySystem::tenant_bytes_used(
    std::uint8_t tenant) const {
  auto it = tenant_accounts_.find(tenant);
  return it == tenant_accounts_.end() ? 0 : it->second.used;
}

std::uint64_t SharedMemorySystem::tenant_quota(std::uint8_t tenant) const {
  auto it = tenant_accounts_.find(tenant);
  return it == tenant_accounts_.end() ? ~0ull : it->second.quota;
}

sim::Duration SharedMemorySystem::tier_latency(std::uint64_t addr,
                                               std::size_t touched_bytes) {
  if (addr < cal_.sram_bytes) return cal_.sram_latency;
  // DRAM region: consult the direct-mapped on-chip cache model.
  const std::uint64_t line = addr / cal_.bank_interleave;
  const std::uint64_t slot = line % dram_cache_tags_.size();
  (void)touched_bytes;
  if (dram_cache_tags_[slot] == line) {
    ++cache_hits_;
    return cal_.dram_cache_latency;
  }
  ++cache_misses_;
  dram_cache_tags_[slot] = line;
  return cal_.dram_latency;
}

int SharedMemorySystem::service_cycles(const XtxnRequest& req) const {
  const auto bytes_cycles = [&](std::size_t n) {
    return static_cast<int>((n + cal_.rmw_bytes_per_cycle - 1) /
                            cal_.rmw_bytes_per_cycle);
  };
  switch (req.op) {
    case XtxnOp::kRead:
      return bytes_cycles(req.len);
    case XtxnOp::kWrite:
      return bytes_cycles(req.data.size());
    case XtxnOp::kCounterInc:
      return 2 * cal_.rmw_add_cycles;  // packet half + byte half
    case XtxnOp::kPolicerCheck:
      return 4;
    case XtxnOp::kFetchAdd32:
    case XtxnOp::kFetchAnd64:
    case XtxnOp::kFetchOr64:
    case XtxnOp::kFetchXor64:
    case XtxnOp::kFetchClear64:
    case XtxnOp::kFetchSwap64:
    case XtxnOp::kMaskedWrite64:
      return cal_.rmw_add_cycles;
    case XtxnOp::kAddVec32:
    case XtxnOp::kMinVec32:
    case XtxnOp::kVoteVec32:
      return cal_.rmw_add_cycles *
             static_cast<int>(req.data.size() / 4);
    default:
      throw std::logic_error("SMS: unsupported XTXN op");
  }
}

void SharedMemorySystem::apply(const XtxnRequest& req, XtxnReply& reply) {
  switch (req.op) {
    case XtxnOp::kRead: {
      check_addr(req.addr, req.len);
      reply.data.resize(req.len);
      read_bytes(req.addr, reply.data.data(), req.len);
      break;
    }
    case XtxnOp::kWrite:
      poke_bytes(req.addr, req.data);
      break;
    case XtxnOp::kCounterInc: {
      // 16-byte Packet/Byte counter (Fig 6): packets += 1, bytes += arg0.
      check_addr(req.addr, 16);
      poke_u64(req.addr, peek_u64(req.addr) + 1);
      poke_u64(req.addr + 8, peek_u64(req.addr + 8) + req.arg0);
      break;
    }
    case XtxnOp::kPolicerCheck: {
      check_addr(req.addr, kPolicerBytes);
      const std::uint64_t rate = peek_u64(req.addr);
      const std::uint64_t burst = peek_u64(req.addr + 8);
      std::uint64_t tokens = peek_u64(req.addr + 16);
      const std::uint64_t last = peek_u64(req.addr + 24);
      const auto now_ns = static_cast<std::uint64_t>(sim_.now().ns());
      if (now_ns > last) {
        const double refill =
            static_cast<double>(now_ns - last) * 1e-9 * static_cast<double>(rate);
        const std::uint64_t filled =
            tokens + static_cast<std::uint64_t>(refill);
        tokens = filled > burst ? burst : filled;
        poke_u64(req.addr + 24, now_ns);
      }
      if (tokens >= req.arg0) {
        tokens -= req.arg0;
        reply.value = 1;  // conform
      } else {
        reply.value = 0;  // exceed
      }
      poke_u64(req.addr + 16, tokens);
      break;
    }
    case XtxnOp::kFetchAdd32: {
      check_addr(req.addr, 4);
      const std::uint32_t old = peek_u32(req.addr);
      poke_u32(req.addr, old + static_cast<std::uint32_t>(req.arg0));
      reply.value = old;
      break;
    }
    case XtxnOp::kFetchAnd64:
    case XtxnOp::kFetchOr64:
    case XtxnOp::kFetchXor64:
    case XtxnOp::kFetchClear64:
    case XtxnOp::kFetchSwap64: {
      check_addr(req.addr, 8);
      const std::uint64_t old = peek_u64(req.addr);
      std::uint64_t next = old;
      switch (req.op) {
        case XtxnOp::kFetchAnd64: next = old & req.arg0; break;
        case XtxnOp::kFetchOr64: next = old | req.arg0; break;
        case XtxnOp::kFetchXor64: next = old ^ req.arg0; break;
        case XtxnOp::kFetchClear64: next = old & ~req.arg0; break;
        case XtxnOp::kFetchSwap64: next = req.arg0; break;
        default: break;
      }
      poke_u64(req.addr, next);
      reply.value = old;
      break;
    }
    case XtxnOp::kMaskedWrite64: {
      check_addr(req.addr, 8);
      const std::uint64_t old = peek_u64(req.addr);
      poke_u64(req.addr, (old & ~req.arg1) | (req.arg0 & req.arg1));
      break;
    }
    case XtxnOp::kAddVec32: {
      // The RMW engine sums packed 32-bit integers into memory — this is
      // the heart of Trio-ML's in-network aggregation (§6.3).
      check_addr(req.addr, req.data.size());
      const std::size_t n = req.data.size() / 4;
      const std::uint8_t* in = req.data.data();
      rmw_words32(req.addr, n, [in](std::uint32_t& w, std::size_t i) {
        w += load_le<std::uint32_t>(in + i * 4);
      });
      add32_ops_ += n;
      break;
    }
    case XtxnOp::kMinVec32: {
      // Element-wise unsigned minimum of packed 32-bit integers — the
      // second RMW merge mode, used by netrpc's `min` response policy.
      check_addr(req.addr, req.data.size());
      const std::size_t n = req.data.size() / 4;
      const std::uint8_t* in = req.data.data();
      rmw_words32(req.addr, n, [in](std::uint32_t& w, std::size_t i) {
        w = std::min(w, load_le<std::uint32_t>(in + i * 4));
      });
      add32_ops_ += n;
      break;
    }
    case XtxnOp::kVoteVec32: {
      // Streaming Boyer-Moore majority per element. The merge buffer is
      // split-plane: candidates live at addr[0 .. len), counts at
      // addr[len .. 2*len), so the candidate plane is a plain packed
      // u32 vector a single kRead can fetch as the merged result —
      // netrpc's `majority` response policy.
      const std::size_t len = req.data.size();
      check_addr(req.addr, len * 2);
      const std::size_t n = len / 4;
      const std::uint8_t* in = req.data.data();
      const auto vote = [](std::uint32_t incoming, std::uint32_t& candidate,
                           std::uint32_t& count) {
        if (count == 0) {
          candidate = incoming;
          count = 1;
        } else if (candidate == incoming) {
          ++count;
        } else {
          --count;
        }
      };
      std::uint8_t* cands = n == 0 ? nullptr : span_in_page(req.addr, len);
      std::uint8_t* counts =
          cands == nullptr ? nullptr : span_in_page(req.addr + len, len);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t incoming = load_le<std::uint32_t>(in + i * 4);
        if (counts != nullptr) {
          std::uint32_t candidate = load_le<std::uint32_t>(cands + i * 4);
          std::uint32_t count = load_le<std::uint32_t>(counts + i * 4);
          vote(incoming, candidate, count);
          store_le(cands + i * 4, candidate);
          store_le(counts + i * 4, count);
        } else {  // a plane straddles a page
          const std::uint64_t a = req.addr + i * 4;
          std::uint32_t candidate = peek_u32(a);
          std::uint32_t count = peek_u32(a + len);
          vote(incoming, candidate, count);
          poke_u32(a, candidate);
          poke_u32(a + len, count);
        }
      }
      add32_ops_ += n;
      break;
    }
    default:
      throw std::logic_error("SMS: unsupported XTXN op");
  }
}

sim::Time SharedMemorySystem::issue(const XtxnRequest& req, XtxnReply& reply,
                                    XtxnCallback cb) {
  ++ops_;
  ops_ctr_.inc();
  reply.reset();
  apply(req, reply);

  const int bank_idx = bank_of(req.addr);
  Bank& bank = banks_[static_cast<std::size_t>(bank_idx)];
  int cycles = service_cycles(req);
  if (line_ownership_mode_ && req.op != XtxnOp::kRead &&
      req.op != XtxnOp::kWrite) {
    // Ablation: conventional line-ownership RMW — fetch the line to the
    // thread, operate, write it back. The bank is occupied for the full
    // round trip instead of just the operation.
    cycles = cycles * 3 + static_cast<int>(2 * cal_.crossbar_latency.ns());
  }
  const sim::Duration service = sim::Duration::cycles(cycles, cal_.clock_hz);
  const sim::Time arrive = sim_.now() + cal_.crossbar_latency;
  const sim::Time start = arrive > bank.free_at ? arrive : bank.free_at;
  if (start > arrive) contended_ctr_.inc();
  queue_delay_hist_.record((start - arrive).ns());
  bank.free_at = start + service;
  bank.busy_cycles += static_cast<std::uint64_t>(cycles);
  bank.busy_ctr.inc(static_cast<std::uint64_t>(cycles));
  if (tracer_ != nullptr) {
    // Service span on the bank's row: queueing behind the RMW engine is
    // visible as the gap between arrival and the span's start.
    tracer_->complete(trace_pid_, trace_rows::kSmsBankBase + bank_idx,
                      xtxn_op_name(req.op), start, bank.free_at);
    tracer_->counter(trace_pid_, bank.trace_name, "busy_cycles", sim_.now(),
                     static_cast<double>(bank.busy_cycles));
  }

  const std::size_t touched =
      req.len != 0 ? req.len : (req.data.empty() ? 8 : req.data.size());
  const sim::Time reply_at = bank.free_at + tier_latency(req.addr, touched);
  if (cb) sim_.schedule_at(reply_at, std::move(cb));
  return reply_at;
}

}  // namespace trio
