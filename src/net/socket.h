// SimSocket: one endpoint of a simulated TCP connection.
//
// TCP is modelled at the byte-stream level: connect and close handshakes cost
// one propagation latency, data serializes over the shared Link, receive
// buffers are finite, and a FIN makes the peer's socket readable (read()
// returns remaining data, then 0). Segment loss and retransmission are not
// modelled — the paper's testbed was a quiet switched LAN.
//
// A socket can live on either machine:
//  - the *server side* is installed in a Process fd table and participates in
//    the kernel machinery (poll masks, hints, RT signals, interrupt charges);
//  - the *client side* belongs to the load generator, which is pure
//    simulation: it reacts through the on_* callbacks, and its CPU is free
//    (the paper's four-way Xeon client is never the bottleneck).

#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/kernel/file.h"
#include "src/kernel/poll_types.h"
#include "src/net/chunk_queue.h"
#include "src/net/socket_callback.h"

namespace scio {

class NetStack;
class TcpTransportHook;

struct ReadResult {
  size_t n = 0;        // bytes consumed (0 with eof=false means would-block)
  std::string data;    // real prefix of the consumed bytes
  bool eof = false;    // peer closed and no data remains
  int err = 0;         // 0, or an errno-style code (kErrBadF) from sys_errno.h
};

class SimSocket : public File, public std::enable_shared_from_this<SimSocket> {
 public:
  enum class State : uint8_t {
    kConnecting,   // client side, SYN in flight
    kEstablished,  // data may flow
    kPeerClosed,   // peer sent FIN; reads drain then return EOF
    kClosed,       // this side closed (fd gone or client Close())
    kRefused,      // client side, connect rejected
  };

  // Use NetStack::MakeSocket / SimListener::HandleSyn instead of constructing
  // directly, so peers and ports are wired consistently.
  SimSocket(SimKernel* kernel, NetStack* net, bool server_side);
  ~SimSocket() override;

  // --- File interface --------------------------------------------------------
  PollEvents PollMask() const override;
  bool SupportsPollHints() const override { return true; }
  void OnFdClose() override { CloseInternal(); }

  // --- data path ------------------------------------------------------------
  // Send; returns bytes accepted (may be short when the send buffer is full,
  // 0 if the connection is not writable). Accepted bytes are in flight until
  // delivery; while full, PollMask drops kPollOut.
  size_t Write(Chunk chunk);

  // Consume up to `max_bytes` from the receive queue.
  ReadResult Read(size_t max_bytes);

  size_t available() const { return recv_available_; }
  bool eof_received() const { return eof_received_; }
  State state() const { return state_; }
  bool server_side() const { return server_side_; }
  int port() const { return port_; }
  // Peer's ephemeral port, recorded on the server side at SYN time so the
  // ingress filter can classify data packets by source after accept().
  int remote_port() const { return remote_port_; }

  // Application-level close for client-side sockets (server side closes via
  // fd table close -> OnFdClose).
  void Close() { CloseInternal(); }

  // --- client-side callbacks ---------------------------------------------------
  SocketCallback<void()> on_connected;
  SocketCallback<void()> on_refused;
  SocketCallback<void(size_t bytes)> on_data;
  SocketCallback<void()> on_eof;

  // --- wiring (NetStack / SimListener internals) -------------------------------
  void WirePeer(std::shared_ptr<SimSocket> peer) { peer_ = std::move(peer); }
  void set_state(State s) { state_ = s; }
  void set_port(int port) { port_ = port; }
  void set_remote_port(int port) { remote_port_ = port; }
  std::shared_ptr<SimSocket> peer() const { return peer_.lock(); }

  // Remote-initiated events, scheduled by the peer through the link.
  void HandleConnected();
  void HandleRefused();
  void DeliverChunk(Chunk chunk);
  void DeliverEof();

  void set_sndbuf(size_t bytes) { sndbuf_ = bytes; }
  size_t sndbuf() const { return sndbuf_; }
  size_t in_flight() const { return in_flight_; }

  // --- transport plane (opt-in; see src/net/transport_hook.h) ------------------
  // Wired by TcpTransportHook::Attach: `index` is the plane's per-connection
  // block slot, so plane lookups from socket context are O(1).
  void WireTransport(TcpTransportHook* hook, int32_t index) {
    transport_ = hook;
    transport_index_ = index;
  }
  TcpTransportHook* transport() const { return transport_; }
  int32_t transport_index() const { return transport_index_; }

  // Plane-side delivery of in-order reassembled bytes. Interrupt charges and
  // the ingress packet filter already ran at segment arrival, so this only
  // enqueues into the receive buffer and fires readiness.
  void AcceptTransportBytes(Chunk chunk);

  // Plane-side acknowledgement: `n` bytes left the retransmit queue for good
  // (cumulatively acked by the peer), freeing send-buffer budget.
  void TransportAcked(size_t n) { OnBytesAcked(n); }

 private:
  void CloseInternal();
  void OnBytesAcked(size_t n);

  // Word-sized members first, then the narrow ones packed without padding:
  // every connection holds two sockets, so the layout is kept to 256 bytes.
  NetStack* net_;
  std::weak_ptr<SimSocket> peer_;
  ChunkQueue recv_queue_;
  size_t recv_available_ = 0;
  size_t sndbuf_;
  size_t in_flight_ = 0;
  TcpTransportHook* transport_ = nullptr;

  int port_ = -1;
  int remote_port_ = -1;
  int32_t transport_index_ = -1;
  State state_;
  bool server_side_;
  bool eof_received_ = false;
  bool port_released_ = false;
};

}  // namespace scio

#endif  // SRC_NET_SOCKET_H_
