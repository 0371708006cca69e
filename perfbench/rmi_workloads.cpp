// The two real-socket workloads: synchronous RMI between two NodeRuntimes
// on 127.0.0.1, driven by one caller thread in a closed loop.
//
//   rmi_tcp         kTouch, no reference arguments, 64 B payload. Per-message
//                   cost: actor hand-off, framing/CRC, the poll loop.
//   rmi_export_tcp  kTouch, 10 fresh unrooted client objects passed by
//                   reference, 4 KiB payload (the paper's Table 1 shape). The
//                   server drops the arguments, so every exported object is
//                   acyclic garbage only server LGC -> NewSetStubs -> client
//                   scion delete -> client LGC can free.
//
// The caller never hops into the client actor to learn that a reply arrived:
// it waits on the client Process's atomic replies_received counter (and
// samples the unreclaimed-object backlog from the atomic allocation
// counters), so the harness does not compete with the loop thread it times.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "src/net/frame.h"
#include "src/net/tcp_transport.h"
#include "src/rt/node_runtime.h"

namespace adgc::perfbench {
namespace {

constexpr std::int64_t kCallTimeoutNs = 10'000'000'000;  // one call's reply
constexpr int kPairSetups = 3;                           // setup_s is their median
constexpr double kLagSampleS = 0.1;
constexpr int kWindows = 5;  // an untraced timed window is split into this many legs
constexpr int kWarmupCalls = 2000;                       // rmi_tcp
constexpr double kIdleS = 5;  // after the calls: collector traffic only

struct Shape {
  const char* name;
  int ref_args;
  std::size_t payload_bytes;
};
constexpr Shape kTouchShape{"rmi_tcp", 0, 64};
constexpr Shape kExportShape{"rmi_export_tcp", 10, 4096};

std::uint16_t reserve_port() {
  Metrics m;
  TcpTransport::Options o;
  o.self = 99;
  TcpTransport probe(o, m);
  probe.start();
  const std::uint16_t port = probe.port();
  probe.stop(0);
  return port;
}

/// Timestamps one traced call writes from the client loop thread. The caller
/// zeroes them before post() and reads them after the reply arrived. Owned by
/// the Pair, so a closure that runs after its call timed out still writes
/// into live memory.
struct StageStamps {
  std::atomic<std::int64_t> entry_ns{0};    // closure entered on the loop thread
  std::atomic<std::int64_t> invoked_ns{0};  // Process::invoke returned
};

/// A client/server NodeRuntime pair, volatile (no state dir), production
/// ProcessConfig defaults. The server roots one target object and exports
/// it to the client, whose rooted caller object holds the reference.
class Pair {
 public:
  Pair(std::uint64_t seed, const Shape& shape) : shape_(shape) {
    const std::uint16_t p0 = reserve_port(), p1 = reserve_port();
    const std::map<ProcessId, PeerAddr> peers = {{0, {"127.0.0.1", p0}},
                                                 {1, {"127.0.0.1", p1}}};
    NodeRuntime::Options o0;
    o0.pid = 0;
    o0.cfg.seed = seed * 2 + 1;
    o0.listen = "127.0.0.1:" + std::to_string(p0);
    o0.peers = peers;
    NodeRuntime::Options o1 = o0;
    o1.pid = 1;
    o1.cfg.seed = seed * 2 + 2;
    o1.listen = "127.0.0.1:" + std::to_string(p1);
    client_ = std::make_unique<NodeRuntime>(std::move(o0));
    server_ = std::make_unique<NodeRuntime>(std::move(o1));
    client_->start();
    server_->start();

    ExportedRef exported;
    server_->post_sync([&](Process& p) {
      server_obj_ = p.create_object();
      p.add_root(server_obj_);
      exported = p.export_own_object(server_obj_, 0);
    });
    client_->post_sync([&](Process& p) {
      client_obj_ = p.create_object();
      p.add_root(client_obj_);
      ref_ = p.install_ref(client_obj_, exported);
      client_metrics_ = &p.metrics();
      heap_before_ = p.heap().size();
    });
  }

  ~Pair() { stop(); }
  Pair(const Pair&) = delete;
  Pair& operator=(const Pair&) = delete;

  void stop() {
    client_->stop(0);
    server_->stop(0);
  }

  /// One synchronous call: post the invoke, wait for its reply. Returns the
  /// latency in µs, or a negative value when no reply came in time. When
  /// `traced`, the closure records its entry and invoke-return times in
  /// stamps().
  double call(bool traced) {
    const std::uint64_t want = client_metrics_->replies_received.get() + 1;
    StageStamps* stamps = traced ? &stamps_ : nullptr;
    if (stamps) {
      stamps->entry_ns.store(0, std::memory_order_relaxed);
      stamps->invoked_ns.store(0, std::memory_order_relaxed);
    }
    const std::int64_t t0 = last_post_ns_ = now_ns();
    client_->post([this, stamps](Process& p) {
      if (stamps) stamps->entry_ns.store(now_ns(), std::memory_order_release);
      std::vector<ArgRef> args;
      args.reserve(static_cast<std::size_t>(shape_.ref_args));
      for (int i = 0; i < shape_.ref_args; ++i) args.push_back(ArgRef::own(p.create_object()));
      p.invoke(client_obj_, ref_, InvokeEffect::kTouch, std::move(args),
               /*want_reply=*/true, shape_.payload_bytes);
      if (stamps) stamps->invoked_ns.store(now_ns(), std::memory_order_release);
    });
    ++calls_;
    for (std::uint32_t spin = 1; client_metrics_->replies_received.get() < want; ++spin) {
      if (spin % 64 == 0 && now_ns() - t0 > kCallTimeoutNs) return -1;
      std::this_thread::yield();
    }
    const std::int64_t t1 = now_ns();
    if (stamps) {
      while (stamps->invoked_ns.load(std::memory_order_acquire) == 0) std::this_thread::yield();
    }
    return static_cast<double>(t1 - t0) / 1e3;
  }

  /// Exported client objects not yet reclaimed (the caller object excluded).
  std::int64_t client_backlog() const {
    return static_cast<std::int64_t>(client_metrics_->objects_allocated.get()) -
           static_cast<std::int64_t>(client_metrics_->objects_reclaimed.get()) - 1;
  }

  Metrics totals() {
    Metrics t;
    t.merge(client_->total_metrics());
    t.merge(server_->total_metrics());
    return t;
  }

  const StageStamps& stamps() const { return stamps_; }
  std::int64_t last_post_ns() const { return last_post_ns_; }
  NodeRuntime& client() { return *client_; }
  NodeRuntime& server() { return *server_; }
  ObjectSeq server_obj() const { return server_obj_; }
  /// Client heap size before the first call exported anything.
  std::size_t heap_before() const { return heap_before_; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t replies() const { return client_metrics_->replies_received.get(); }

 private:
  Shape shape_;
  std::unique_ptr<NodeRuntime> client_, server_;
  Metrics* client_metrics_ = nullptr;
  StageStamps stamps_;
  std::int64_t last_post_ns_ = 0;
  ObjectSeq client_obj_ = kNoObject, server_obj_ = kNoObject;
  RefId ref_ = kNoRef;
  std::uint64_t calls_ = 0;
  std::size_t heap_before_ = 0;
};

/// One timed closed-loop leg. Call latencies go into a fixed-size histogram,
/// so the harness's memory does not grow with the call rate (the run reports
/// the process's peak RSS); only traced legs keep every sample.
struct Leg {
  LatencyHistogram latency;
  std::vector<double> post_wait_us, invoke_us, reply_wait_us;  // traced only
  std::vector<double> backlog;  // unreclaimed exported objects, every 100 ms
  std::vector<double> heap_mb;  // heap in use, every 100 ms
  std::vector<double> heap_b_per_obj;  // the same ÷ objects the two nodes hold
  double wall_s = 0;
  bool timed_out = false;
};

Leg run_leg(Pair& pair, double seconds, bool traced) {
  Leg leg;
  const StageStamps& stamps = pair.stamps();
  const auto t0 = Clock::now();
  double next_sample = 0;
  for (double el = 0; el < seconds; el = seconds_since(t0)) {
    if (el >= next_sample) {
      const double backlog = static_cast<double>(pair.client_backlog());
      const double heap = heap_mb();
      leg.backlog.push_back(backlog);
      leg.heap_mb.push_back(heap);
      // The backlog plus the client's caller and the server's target.
      leg.heap_b_per_obj.push_back(heap * kMiB / (backlog + 2));
      next_sample += kLagSampleS;
    }
    const double us = pair.call(traced);
    if (us < 0) {
      leg.timed_out = true;
      break;
    }
    leg.latency.record(us);
    if (traced) {
      const std::int64_t posted = pair.last_post_ns();
      const std::int64_t entry = stamps.entry_ns.load(std::memory_order_acquire);
      const std::int64_t invoked = stamps.invoked_ns.load(std::memory_order_acquire);
      leg.post_wait_us.push_back(static_cast<double>(entry - posted) / 1e3);
      leg.invoke_us.push_back(static_cast<double>(invoked - entry) / 1e3);
      // The rest of the call, so the three stages add up to it by definition.
      leg.reply_wait_us.push_back(us - static_cast<double>(invoked - posted) / 1e3);
    }
  }
  leg.wall_s = seconds_since(t0);
  return leg;
}

/// Envelope bytes of the workload's invoke and reply, as encoded on the wire.
struct WireShape {
  Envelope invoke, reply;
};

WireShape wire_shape(const Shape& shape) {
  InvokeMsg inv;
  inv.ref = make_ref_id(0, 1);
  inv.ic = 1;
  inv.target = {1, 1};
  inv.caller = {0, 1};
  for (int i = 0; i < shape.ref_args; ++i) {
    inv.args.push_back({make_ref_id(0, 2 + static_cast<std::uint64_t>(i)),
                        {0, 2 + static_cast<ObjectSeq>(i)}});
  }
  inv.payload.assign(shape.payload_bytes, std::byte{0x5a});
  inv.call_id = 1;
  ReplyMsg rep;
  rep.ref = inv.ref;
  rep.ic = 2;
  rep.call_id = 1;
  WireShape w;
  w.invoke = {0, 1, 0, 0, encode_message(inv)};
  w.reply = {1, 0, 0, 0, encode_message(rep)};
  return w;
}

/// Reference floor: raw TCP_NODELAY loopback ping-pong of the workload's
/// frame sizes (request, reply). An OS floor nothing in the repo should move.
double loopback_rtt_p50_us(std::size_t req_bytes, std::size_t rep_bytes, double seconds) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) throw std::runtime_error("loopback floor: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(lfd);
    throw std::runtime_error("loopback floor: bind/listen failed");
  }
  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (cfd < 0 || ::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(lfd);
    if (cfd >= 0) ::close(cfd);
    throw std::runtime_error("loopback floor: connect failed");
  }
  const int sfd = ::accept(lfd, nullptr, nullptr);
  ::close(lfd);
  if (sfd < 0) {
    ::close(cfd);
    throw std::runtime_error("loopback floor: accept failed");
  }
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::setsockopt(sfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  const auto read_full = [](int fd, std::vector<char>& buf) {
    std::size_t got = 0;
    while (got < buf.size()) {
      const ssize_t n = ::read(fd, buf.data() + got, buf.size() - got);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  };
  const auto write_full = [](int fd, const std::vector<char>& buf) {
    std::size_t put = 0;
    while (put < buf.size()) {
      const ssize_t n = ::write(fd, buf.data() + put, buf.size() - put);
      if (n <= 0) return false;
      put += static_cast<std::size_t>(n);
    }
    return true;
  };

  std::thread echo([&] {
    std::vector<char> req(req_bytes), rep(rep_bytes, 'r');
    while (read_full(sfd, req) && write_full(sfd, rep)) {
    }
  });
  std::vector<char> req(req_bytes, 'q'), rep(rep_bytes);
  std::vector<double> rtt;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds) {
    const std::int64_t s = now_ns();
    if (!write_full(cfd, req) || !read_full(cfd, rep)) break;
    rtt.push_back(static_cast<double>(now_ns() - s) / 1e3);
  }
  ::shutdown(cfd, SHUT_RDWR);
  echo.join();
  ::close(cfd);
  ::close(sfd);
  return median(rtt);
}

/// Reference floor: two bare TcpTransports (no Process, no actor thread)
/// ping-ponging the workload's invoke/reply envelopes.
double transport_rtt_p50_us(const WireShape& w, double seconds) {
  const std::uint16_t p0 = reserve_port(), p1 = reserve_port();
  const std::map<ProcessId, PeerAddr> peers = {{0, {"127.0.0.1", p0}},
                                               {1, {"127.0.0.1", p1}}};
  Metrics m0, m1;
  TcpTransport::Options o0;
  o0.self = 0;
  o0.listen_port = p0;
  o0.peers = peers;
  TcpTransport::Options o1 = o0;
  o1.self = 1;
  o1.listen_port = p1;
  TcpTransport a(o0, m0), b(o1, m1);
  std::atomic<std::uint64_t> pongs{0};
  a.set_deliver([&](Envelope&&) { pongs.fetch_add(1, std::memory_order_release); });
  b.set_deliver([&](Envelope&&) { b.send(w.reply); });
  a.start();
  b.start();
  std::vector<double> rtt;
  const auto t0 = Clock::now();
  std::uint64_t want = 0;
  while (seconds_since(t0) < seconds) {
    const std::int64_t s = now_ns();
    a.send(w.invoke);
    ++want;
    while (pongs.load(std::memory_order_acquire) < want) {
      if (now_ns() - s > kCallTimeoutNs) break;
      std::this_thread::yield();
    }
    if (pongs.load(std::memory_order_acquire) < want) break;
    rtt.push_back(static_cast<double>(now_ns() - s) / 1e3);
  }
  a.stop(0);
  b.stop(0);
  return median(rtt);
}

/// Median per-operation time (µs) of framing the workload's invoke envelope,
/// and of unframing + decoding it, timed in batches of 64 operations.
void codec_us(const WireShape& w, double seconds, double* encode_us, double* decode_us) {
  constexpr int kBatch = 64;
  const std::vector<std::byte> frame = encode_data_frame(w.invoke);
  std::vector<double> enc, dec;
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds) {
    std::int64_t s = now_ns();
    for (int i = 0; i < kBatch; ++i) sink += encode_data_frame(w.invoke).size();
    enc.push_back(static_cast<double>(now_ns() - s) / 1e3 / kBatch);
    s = now_ns();
    for (int i = 0; i < kBatch; ++i) {
      FrameDecoder d;
      d.feed(frame);
      const std::optional<Frame> f = d.next();
      if (!f) throw std::runtime_error("codec floor: frame did not decode");
      sink += decode_message(f->payload).index();
    }
    dec.push_back(static_cast<double>(now_ns() - s) / 1e3 / kBatch);
  }
  if (sink == 0) std::fprintf(stderr, " ");  // keeps the loops observable
  *encode_us = median(enc);
  *decode_us = median(dec);
}

/// rt and net per-layer metrics of a traced leg; `before`/`after` are the
/// pair's Metrics around it. The three stages add up to the call.
void add_rt_layers(Result& r, const Leg& leg, const Metrics& after, const Metrics& before) {
  std::vector<double> post = leg.post_wait_us, rep = leg.reply_wait_us;
  const double calls = static_cast<double>(leg.latency.count());
  r.add("rt.post_wait_us.p50", "us", quantile(post, 0.5));
  r.add("rt.post_wait_us.p99", "us", quantile(post, 0.99));
  r.add("rt.reply_wait_us.p50", "us", quantile(rep, 0.5));
  r.add("rt.reply_wait_us.p99", "us", quantile(rep, 0.99));
  r.add("rt.rmi_rtt_us.mean", "us", hist_mean(after.rmi_rtt_us, before.rmi_rtt_us));
  r.add("net.frames_per_rmi", "frames",
        ratio(delta(after.tcp_frames_sent, before.tcp_frames_sent), calls));
  r.add("net.writeq_depth.mean", "frames",
        hist_mean(after.tcp_writeq_depth, before.tcp_writeq_depth));
}

/// Reference floors at the shape's frame sizes. Run them with no pair
/// running, so nothing else competes for the cores.
void add_net_floors(Result& r, const Shape& shape, double seconds) {
  const WireShape w = wire_shape(shape);
  r.add("net.transport_rtt_us.p50", "us", transport_rtt_p50_us(w, seconds));
  r.add("net.loopback_rtt_us.p50", "us",
        loopback_rtt_p50_us(encode_data_frame(w.invoke).size(),
                            encode_data_frame(w.reply).size(), seconds));
  double enc = 0, dec = 0;
  codec_us(w, seconds, &enc, &dec);
  r.add("net.encode_us", "us", enc);
  r.add("net.decode_us", "us", dec);
}

Result run_rmi(const RunOptions& opts, const Shape& shape) {
  Result r;

  // setup_s: median of several complete pair setups (start, connect, first
  // reply); the last pair is kept for the run.
  std::vector<double> setups;
  std::unique_ptr<Pair> pair;
  for (int i = 0; i < kPairSetups; ++i) {
    if (pair) pair->stop();
    pair.reset();
    const auto t0 = Clock::now();
    pair = std::make_unique<Pair>(opts.seed + static_cast<std::uint64_t>(i), shape);
    if (pair->call(false) < 0) {
      r.attempted = 1;
      r.fail("pair setup: first call got no reply");
      return r;
    }
    setups.push_back(seconds_since(t0));
  }
  // Warm-up, also part of setup_s. rmi_tcp: a fixed number of calls.
  // Export: until the unreclaimed backlog (sampled every 100 ms) has set no
  // new high for a whole second (at most 30 s), so the timed window sees the
  // steady state.
  const auto warm0 = Clock::now();
  if (shape.ref_args == 0) {
    for (int i = 0; i < kWarmupCalls; ++i) {
      if (pair->call(false) < 0) break;
    }
  } else {
    double high = -1;
    for (int quiet = 0; quiet < 10 && seconds_since(warm0) < 30;) {
      const Leg leg = run_leg(*pair, kLagSampleS, false);
      if (leg.timed_out) break;
      const double backlog = static_cast<double>(pair->client_backlog());
      quiet = backlog > high ? 0 : quiet + 1;
      high = std::max(high, backlog);
    }
  }
  const double warm_s = seconds_since(warm0);
  std::fprintf(stderr, "%s: pair setups %.3f/%.3f/%.3f s, warm-up %.2f s\n", shape.name,
               setups[0], setups[1], setups[2], warm_s);

  // Timed window. An untraced run splits it into kWindows equal legs and
  // reports the median of their latency quantiles, so a burst of load from
  // outside the benchmark moves one leg rather than the result. A traced run
  // first repeats a third of the window untraced, so the per-stage spans'
  // own cost shows as bench.trace_overhead_pct and bench.ops_per_s is free
  // of it.
  Leg plain;
  if (opts.trace) plain = run_leg(*pair, opts.seconds / 3, false);
  const Metrics before = pair->totals();
  std::vector<Leg> legs;
  if (opts.trace) {
    legs.push_back(run_leg(*pair, opts.seconds * 2 / 3, true));
  } else {
    while (legs.size() < kWindows && (legs.empty() || !legs.back().timed_out)) {
      legs.push_back(run_leg(*pair, opts.seconds / kWindows, false));
    }
  }
  const Metrics after = pair->totals();
  double calls = 0, wall_s = 0;
  std::vector<double> backlog, heap, heap_per_obj, p50s, p999s;
  bool timed_out = plain.timed_out;
  for (const Leg& l : legs) {
    calls += static_cast<double>(l.latency.count());
    wall_s += l.wall_s;
    backlog.insert(backlog.end(), l.backlog.begin(), l.backlog.end());
    heap.insert(heap.end(), l.heap_mb.begin(), l.heap_mb.end());
    heap_per_obj.insert(heap_per_obj.end(), l.heap_b_per_obj.begin(), l.heap_b_per_obj.end());
    p50s.push_back(l.latency.quantile(0.5));
    p999s.push_back(l.latency.quantile(0.999));
    timed_out = timed_out || l.timed_out;
  }
  r.attempted = pair->calls();
  if (timed_out) r.fail("a call got no reply within 10 s");

  // Correctness: exactly one reply per call, nothing dropped at either node.
  if (pair->replies() != pair->calls()) {
    r.fail("replies (" + std::to_string(pair->replies()) + ") != calls (" +
           std::to_string(pair->calls()) + ")");
  }
  if (after.invocations_dropped.get() != 0) {
    r.fail("invocations_dropped = " + std::to_string(after.invocations_dropped.get()));
  }
  // Export: once calls stop, the client heap drains back to its pre-run size
  // and the server's target survives.
  if (shape.ref_args > 0) {
    const auto d0 = Clock::now();
    while (pair->client_backlog() > 0 && seconds_since(d0) < 60) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::size_t heap_after = 0;
    pair->client().post_sync([&](Process& p) { heap_after = p.heap().size(); });
    bool target_alive = false;
    pair->server().post_sync([&](Process& p) {
      const ObjectSeq target = pair->server_obj();
      target_alive = p.heap().exists(target) && p.heap().is_root(target);
    });
    std::fprintf(stderr, "%s: drained to %zu objects in %.2f s\n", shape.name, heap_after,
                 seconds_since(d0));
    if (heap_after != pair->heap_before()) {
      r.fail("client heap " + std::to_string(heap_after) + " objects after drain, " +
             std::to_string(pair->heap_before()) + " before the run");
    }
    if (!target_alive) r.fail("server target object was reclaimed");
  }
  // Idle span: no calls and nothing left to collect; what the two nodes
  // still send is the collectors' steady-state traffic.
  const Metrics idle0 = pair->totals();
  const auto t_idle = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(kIdleS));
  const Metrics idle1 = pair->totals();
  const double idle_proc_s = 2 * seconds_since(t_idle);
  pair->stop();

  if (!opts.trace) {
    const double exports_per_s = shape.ref_args * calls / wall_s;
    r.add("setup_s", "s", median(setups) + warm_s);
    // Per object held, not in total: in a closed loop the garbage backlog,
    // and so the heap, grows with the call rate, which follows the host's
    // speed and would make a faster program read as a memory regression.
    r.add("heap_b_per_obj", "B", median(heap_per_obj));
    r.add("latency_p50_ms", "ms", median(p50s) / 1e3);
    r.add("latency_tail_ms", "ms", median(p999s) / 1e3);
    r.add("msgs_per_op", "msgs",
          ratio(delta(after.messages_sent, before.messages_sent), calls));
    r.add("acyclic_lag_ms", "ms", ratio(mean(backlog), exports_per_s) * 1e3);
    // p95: the highest percentile with ten samples beyond it in a 30 s run.
    r.add("acyclic_lag_tail_ms", "ms", ratio(quantile(backlog, 0.95), exports_per_s) * 1e3);
    r.add("idle_msgs_per_proc_s", "msgs",
          ratio(delta(idle1.messages_sent, idle0.messages_sent), idle_proc_s));
    return r;
  }

  const Leg& leg = legs.front();
  std::vector<double> inv = leg.invoke_us;
  r.add("dgc.invoke_us.p50", "us", quantile(inv, 0.5));
  const double plain_p50 = plain.latency.quantile(0.5);
  r.add("bench.trace_overhead_pct", "%", ratio(p50s.front() - plain_p50, plain_p50) * 100);
  r.add("net.bytes_per_op", "B", ratio(delta(after.bytes_sent, before.bytes_sent), calls));
  r.add("bench.ops_per_s", "1/s",
        ratio(static_cast<double>(plain.latency.count()), plain.wall_s));
  r.add("bench.heap_busy_mb", "MiB", median(heap));
  add_rt_layers(r, leg, after, before);
  add_collector_layers(r, after, before, 2 * leg.wall_s);
  add_nss_rates(r, after, before, 2 * leg.wall_s, idle1, idle0, idle_proc_s);
  add_dcda_layers(r, after, before, /*cycles=*/0);
  add_net_floors(r, shape, std::min(1.0, opts.seconds / 10));
  return r;
}

}  // namespace

Result run_rmi_tcp(const RunOptions& opts) { return run_rmi(opts, kTouchShape); }
Result run_rmi_export_tcp(const RunOptions& opts) { return run_rmi(opts, kExportShape); }

void add_reference_rmi_layers(Result& r, std::uint64_t seed, double seconds) {
  Pair pair(seed, kTouchShape);
  bool ok = pair.call(false) >= 0;
  for (int i = 0; ok && i < kWarmupCalls; ++i) ok = pair.call(false) >= 0;
  const Metrics before = pair.totals();
  const Leg leg = ok ? run_leg(pair, seconds, true) : Leg{};
  const Metrics after = pair.totals();
  pair.stop();
  if (!ok || leg.timed_out) r.fail("reference RMI leg: a call got no reply within 10 s");
  add_rt_layers(r, leg, after, before);
  add_net_floors(r, kTouchShape, seconds);
}

}  // namespace adgc::perfbench
