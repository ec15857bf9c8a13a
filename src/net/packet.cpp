#include "net/packet.hpp"

#include <vector>

namespace net {
namespace detail {
namespace {

/// The freelist itself: one per thread, torn down with the thread. The
/// alive flag (trivially destructible) lets deallocate() run safely from
/// shared_ptr releases during static destruction.
struct CellPoolState {
  std::vector<void*> free;
  std::size_t cell_bytes = 0;
  std::uint64_t reuses = 0;
  CellPoolState() { alive() = true; }
  ~CellPoolState() {
    alive() = false;
    for (void* p : free) ::operator delete(p);
  }
  static bool& alive() {
    static thread_local bool a = false;
    return a;
  }
  static CellPoolState& instance() {
    static thread_local CellPoolState s;
    return s;
  }
  static constexpr std::size_t kMaxEntries = 8192;
};

}  // namespace

void* PacketCellPool::allocate(std::size_t bytes) {
  CellPoolState& s = CellPoolState::instance();
  if (s.cell_bytes == 0) s.cell_bytes = bytes;
  if (bytes == s.cell_bytes && !s.free.empty()) {
    void* p = s.free.back();
    s.free.pop_back();
    ++s.reuses;
    return p;
  }
  return ::operator new(bytes);
}

void PacketCellPool::deallocate(void* p, std::size_t bytes) noexcept {
  if (CellPoolState::alive()) {
    CellPoolState& s = CellPoolState::instance();
    if (bytes == s.cell_bytes && s.free.size() < CellPoolState::kMaxEntries) {
      s.free.push_back(p);
      return;
    }
  }
  ::operator delete(p);
}

std::uint64_t PacketCellPool::reuses() {
  return CellPoolState::instance().reuses;
}

}  // namespace detail

Buffer build_udp_frame(const MacAddr& eth_src, const MacAddr& eth_dst,
                       Ipv4Addr ip_src, Ipv4Addr ip_dst,
                       std::uint16_t udp_src, std::uint16_t udp_dst,
                       std::size_t payload_bytes) {
  const std::size_t total = UdpFrameLayout::kPayloadOff + payload_bytes;
  Buffer buf = BufferPool::instance().acquire(total);

  EthernetHeader eth;
  eth.src = eth_src;
  eth.dst = eth_dst;
  eth.ether_type = EthernetHeader::kEtherTypeIpv4;
  eth.write(buf, UdpFrameLayout::kEthOff);

  Ipv4Header ip;
  ip.src = ip_src;
  ip.dst = ip_dst;
  ip.protocol = Ipv4Header::kProtoUdp;
  ip.total_length = static_cast<std::uint16_t>(
      Ipv4Header::kSize + UdpHeader::kSize + payload_bytes);
  ip.write(buf, UdpFrameLayout::kIpOff);

  UdpHeader udp;
  udp.src_port = udp_src;
  udp.dst_port = udp_dst;
  udp.length = static_cast<std::uint16_t>(UdpHeader::kSize + payload_bytes);
  udp.write(buf, UdpFrameLayout::kUdpOff);
  return buf;
}

Buffer build_udp_frame(const MacAddr& eth_src, const MacAddr& eth_dst,
                       Ipv4Addr ip_src, Ipv4Addr ip_dst,
                       std::uint16_t udp_src, std::uint16_t udp_dst,
                       std::span<const std::uint8_t> payload) {
  Buffer buf = build_udp_frame(eth_src, eth_dst, ip_src, ip_dst, udp_src,
                               udp_dst, payload.size());
  buf.write(UdpFrameLayout::kPayloadOff, payload);
  return buf;
}

}  // namespace net
