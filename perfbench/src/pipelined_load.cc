#include "pipelined_load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "shiftsplit/net/wire.h"

namespace perfbench {

namespace wire = shiftsplit::net;

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kPoint:
      return "point";
    case OpKind::kRange:
      return "range";
    case OpKind::kAdd:
      return "add";
  }
  return "unknown";
}

namespace {

// Beyond this many requests in flight a due request is dropped (counted
// failed) instead of sent: the step has already failed, and an unbounded
// backlog would only delay the next one.
constexpr size_t kMaxInflight = 4096;
// How long stragglers may take after the last scheduled send.
constexpr double kDrainTimeoutS = 0.5;

std::vector<uint8_t> EncodeOp(const Op& op, const std::string& cube,
                              uint64_t request_id, uint32_t deadline_ms) {
  wire::FrameHeader header;
  header.request_id = request_id;
  header.deadline_ms = deadline_ms;
  std::vector<uint8_t> body;
  switch (op.kind) {
    case OpKind::kPoint:
      header.opcode = wire::Opcode::kPoint;
      body = wire::EncodePointRequest({cube, op.a, 0.0});
      break;
    case OpKind::kRange:
      header.opcode = wire::Opcode::kSum;
      body = wire::EncodeSumRequest({cube, op.a, op.b, 0.0});
      break;
    case OpKind::kAdd:
      header.opcode = wire::Opcode::kAdd;
      body = wire::EncodeAddRequest({cube, op.a, op.delta});
      break;
  }
  header.payload_len = static_cast<uint32_t>(body.size());
  return wire::EncodeFrame(header, body);
}

// Recomputes a step's latency and lag p99 from its samples and its failure
// count.
void UpdateTails(LoadStep* step) {
  std::vector<double> all;
  for (int k = 0; k < kOpKinds; ++k) {
    all.insert(all.end(), step->latency_us[k].begin(),
               step->latency_us[k].end());
  }
  step->stats.p99_us = P99CountingFailures(std::move(all), step->stats.failed);
  if (!step->lag_us.empty()) {
    std::vector<double> lag = step->lag_us;
    std::sort(lag.begin(), lag.end());
    step->stats.lag_p99_us = NearestRank(lag, 99.0);
  }
}

}  // namespace

void Append(LoadStep* into, const LoadStep& step) {
  StepStats& a = into->stats;
  const StepStats& b = step.stats;
  const double a_sent = static_cast<double>(into->lag_us.size());
  const double b_sent = static_cast<double>(step.lag_us.size());
  if (a_sent + b_sent > 0.0) {
    into->busy_us_per_request = (into->busy_us_per_request * a_sent +
                                 step.busy_us_per_request * b_sent) /
                                (a_sent + b_sent);
  }
  const double a_length = a.offered_per_s > 0.0
                              ? static_cast<double>(a.scheduled) /
                                    a.offered_per_s
                              : 0.0;
  const double b_length = b.offered_per_s > 0.0
                              ? static_cast<double>(b.scheduled) /
                                    b.offered_per_s
                              : 0.0;
  const uint64_t scheduled = a.scheduled + b.scheduled;
  const double weight_a =
      scheduled == 0 ? 0.0 : static_cast<double>(a.scheduled) / scheduled;
  a.inflight_first_half = weight_a * a.inflight_first_half +
                          (1.0 - weight_a) * b.inflight_first_half;
  a.inflight_second_half = weight_a * a.inflight_second_half +
                           (1.0 - weight_a) * b.inflight_second_half;
  a.scheduled = scheduled;
  a.offered_per_s = a_length + b_length > 0.0
                        ? static_cast<double>(scheduled) / (a_length + b_length)
                        : 0.0;
  a.elapsed_s += b.elapsed_s;
  a.completed += b.completed;
  a.failed += b.failed;
  for (int k = 0; k < kOpKinds; ++k) {
    into->latency_us[k].insert(into->latency_us[k].end(),
                               step.latency_us[k].begin(),
                               step.latency_us[k].end());
    into->failed_by_kind[k] += step.failed_by_kind[k];
  }
  into->lag_us.insert(into->lag_us.end(), step.lag_us.begin(),
                      step.lag_us.end());
  into->acked_adds += step.acked_adds;
  into->unmatched_replies += step.unmatched_replies;
  into->max_inflight = std::max(into->max_inflight, step.max_inflight);
  UpdateTails(into);
}

PipelinedLoad::PipelinedLoad(uint16_t port, int connections, std::string cube)
    : port_(port), cube_(std::move(cube)), conns_(connections) {}

PipelinedLoad::~PipelinedLoad() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void PipelinedLoad::Connect() {
  for (Conn& conn : conns_) {
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (conn.fd < 0) throw std::runtime_error("socket failed");
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      throw std::runtime_error(std::string("connect: ") +
                               std::strerror(errno));
    }
    pollfd pfd{conn.fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 5000) != 1 || (pfd.revents & POLLOUT) == 0) {
      throw std::runtime_error("connect timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      throw std::runtime_error(std::string("connect: ") + std::strerror(err));
    }
  }
}

LoadStep PipelinedLoad::RunStep(const std::vector<Op>& ops,
                                const std::vector<uint64_t>& schedule_ns,
                                const StepPlan& plan, Tracer* tracer) {
  const bool closed = plan.closed_depth != 0;
  if (!closed && ops.size() != schedule_ns.size()) {
    throw std::invalid_argument("ops and schedule differ in length");
  }
  const size_t n = ops.size();
  std::vector<std::vector<uint8_t>> frames(n);
  std::vector<uint64_t> ids(n);
  for (size_t i = 0; i < n; ++i) {
    ids[i] = next_request_id_++;
    frames[i] = EncodeOp(ops[i], cube_, ids[i], plan.deadline_ms);
  }

  LoadStep out;
  InflightTable inflight;
  double inflight_sum[2] = {0.0, 0.0};
  uint64_t inflight_samples[2] = {0, 0};
  out.lag_us.reserve(n);
  std::vector<pollfd> pfds(conns_.size());

  const uint64_t start = NowNs() + 2'000'000;  // 2 ms to settle
  const uint64_t schedule_end =
      start + static_cast<uint64_t>(plan.duration_s * 1e9);
  const uint64_t give_up =
      schedule_end + static_cast<uint64_t>(kDrainTimeoutS * 1e9);
  uint64_t last_reply = start;
  size_t next = 0;
  uint64_t sent = 0;
  // Wall time of the loop iterations that sent or received something: the
  // generator's work, without the spinning between requests.
  uint64_t busy_ns = 0;
  uint64_t iteration_start = 0;
  bool worked = false;

  auto fail_op = [&](size_t index) {
    ++out.failed_by_kind[static_cast<int>(ops[index].kind)];
  };

  while (true) {
    uint64_t now = NowNs();
    if (worked) busy_ns += now - iteration_start;
    iteration_start = now;
    worked = false;
    // Queue every request that is due.
    while (next < n &&
           (closed ? start <= now && now < schedule_end &&
                         inflight.size() < plan.closed_depth
                   : start + schedule_ns[next] <= now)) {
      const uint64_t scheduled = closed ? now : start + schedule_ns[next];
      if (inflight.size() >= kMaxInflight) {
        fail_op(next);  // shed: the backlog is already past its cap
        ++next;
        continue;
      }
      Conn& conn = conns_[next % conns_.size()];
      conn.out.insert(conn.out.end(), frames[next].begin(),
                      frames[next].end());
      inflight.Insert(ids[next],
                      Pending{scheduled, static_cast<uint32_t>(next)});
      out.lag_us.push_back(static_cast<double>(now - scheduled) / 1e3);
      const int half = next < n / 2 ? 0 : 1;
      inflight_sum[half] += static_cast<double>(inflight.size());
      ++inflight_samples[half];
      ++sent;
      ++next;
      worked = true;
    }
    // Flush what the sockets take.
    bool want_out = false;
    for (Conn& conn : conns_) {
      while (conn.out_pos < conn.out.size()) {
        const uint64_t w0 = tracer->enabled() ? NowNs() : 0;
        const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_pos,
                                 conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
        if (tracer->enabled()) tracer->Record("net.write", w0, NowNs());
        if (w > 0) {
          conn.out_pos += static_cast<size_t>(w);
          continue;
        }
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          want_out = true;
          break;
        }
        if (w < 0 && errno == EINTR) continue;
        throw std::runtime_error("send failed");
      }
      if (conn.out_pos == conn.out.size()) {
        conn.out.clear();
        conn.out_pos = 0;
      }
    }
    now = NowNs();
    const bool sending = next < n && (!closed || now < schedule_end);
    if (!sending && inflight.size() == 0) break;
    if (now >= give_up) break;

    // Poll for replies without blocking while requests remain to be sent:
    // the thread spins instead of sleeping to each send time, because a
    // timer wake-up per request costs more CPU than the request itself on
    // a virtual machine and would make the generator, not the server, the
    // bottleneck. Once every request is out, block for the stragglers.
    const uint64_t wait_ns = sending ? 0 : give_up - now;
    if (wait_ns != 0) {
      if (worked) busy_ns += now - iteration_start;
      worked = false;
    }
    for (size_t c = 0; c < conns_.size(); ++c) {
      pfds[c].fd = conns_[c].fd;
      pfds[c].events = static_cast<short>(
          POLLIN | (want_out && conns_[c].out_pos < conns_[c].out.size()
                        ? POLLOUT
                        : 0));
      pfds[c].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ull),
                static_cast<long>(wait_ns % 1'000'000'000ull)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("ppoll failed");
    }
    if (wait_ns != 0) iteration_start = NowNs();
    if (ready == 0) continue;

    for (size_t c = 0; c < conns_.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns_[c];
      uint8_t buf[65536];
      while (true) {
        const uint64_t r0 = tracer->enabled() ? NowNs() : 0;
        const ssize_t r = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (tracer->enabled()) tracer->Record("net.read", r0, NowNs());
        if (r > 0) {
          conn.in.insert(conn.in.end(), buf, buf + r);
          if (static_cast<size_t>(r) < sizeof(buf)) break;
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw std::runtime_error("connection closed by the server");
      }
      const uint64_t recv_now = NowNs();
      // Decode every complete frame and match it by request id.
      size_t pos = 0;
      while (conn.in.size() - pos >= wire::kHeaderSize) {
        const std::span<const uint8_t> rest(conn.in.data() + pos,
                                            conn.in.size() - pos);
        auto header = wire::DecodeHeader(rest);
        if (!header.ok()) {
          throw std::runtime_error("bad reply header: " +
                                   header.status().ToString());
        }
        const size_t total =
            wire::kHeaderSize + header->payload_len + wire::kTrailerSize;
        if (rest.size() < total) break;
        const auto frame = rest.subspan(0, total);
        if (!wire::VerifyFrame(frame).ok()) {
          throw std::runtime_error("reply failed its CRC check");
        }
        pos += total;
        worked = true;
        const auto pending = inflight.Take(header->request_id);
        if (!pending) {
          ++out.unmatched_replies;
          continue;
        }
        last_reply = recv_now;
        const Op& op = ops[pending->op_index];
        const int kind = static_cast<int>(op.kind);
        const auto body = frame.subspan(wire::kHeaderSize,
                                        header->payload_len);
        bool ok = header->opcode == wire::Opcode::kReply;
        double value = 0.0;
        if (ok && op.kind != OpKind::kAdd) {
          auto reply = wire::DecodeQueryReply(body);
          ok = reply.ok() && !reply->degraded;
          if (ok) value = reply->value;
        }
        if (!ok) {
          ++out.failed_by_kind[kind];
          continue;
        }
        if (op.kind == OpKind::kAdd) ++out.acked_adds;
        out.latency_us[kind].push_back(
            static_cast<double>(recv_now - pending->scheduled_ns) / 1e3);
        if (tracer->enabled()) {
          tracer->Record("net.request", pending->scheduled_ns, recv_now,
                         header->request_id);
        }
        if (plan.sample_stride != 0 && op.kind != OpKind::kAdd &&
            pending->op_index % plan.sample_stride == 0) {
          out.sampled.emplace_back(pending->op_index, value);
        }
      }
      conn.in.erase(conn.in.begin(),
                    conn.in.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }

  // Whatever is still in flight at the give-up point never completed. The
  // connections are then replaced, so a late reply cannot leak into the
  // next step.
  if (inflight.size() != 0) {
    for (size_t i = 0; i < next; ++i) {
      if (inflight.Take(ids[i])) fail_op(i);
    }
    for (Conn& conn : conns_) {
      ::close(conn.fd);
      conn = Conn{};
    }
    Connect();
  }
  if (worked) busy_ns += NowNs() - iteration_start;
  // An open-loop step lasts at least its schedule; a closed one ends with
  // its last reply, which comes early when the operations run out.
  if (!closed && last_reply < schedule_end) last_reply = schedule_end;

  StepStats& s = out.stats;
  // A closed-loop step offers what it sent.
  s.scheduled = closed ? sent : n;
  s.offered_per_s = static_cast<double>(s.scheduled) / plan.duration_s;
  s.elapsed_s = static_cast<double>(last_reply - start) / 1e9;
  for (int k = 0; k < kOpKinds; ++k) {
    s.completed += out.latency_us[k].size();
    s.failed += out.failed_by_kind[k];
  }
  s.failed += out.unmatched_replies;
  UpdateTails(&out);
  for (int h = 0; h < 2; ++h) {
    const double mean = inflight_samples[h] == 0
                            ? 0.0
                            : inflight_sum[h] /
                                  static_cast<double>(inflight_samples[h]);
    (h == 0 ? s.inflight_first_half : s.inflight_second_half) = mean;
  }
  out.max_inflight = inflight.max_size();
  out.busy_us_per_request =
      sent == 0 ? 0.0 : static_cast<double>(busy_ns) / 1e3 /
                            static_cast<double>(sent);
  return out;
}

}  // namespace perfbench
