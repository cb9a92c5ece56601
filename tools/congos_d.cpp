// congos_d: one CONGOS process as a long-running daemon over real UDP
// sockets (DESIGN.md section 13).
//
// The daemon binds two datagram sockets on 127.0.0.1 - data (protocol
// traffic, envelope frames coalesced per framing.h) and control (the
// line-based protocol in net/control.h) - then prints
//
//   READY id=<I> data=<port> control=<port>
//
// on stdout and waits for the cluster runner's `start` command carrying
// the shared wall-clock epoch, the round length and the full peer port
// table. From the epoch on it runs the runtime loop: rounds advance at
// wall-clock boundaries, datagrams received during a round's window form
// the next receive phase's inbox, and injections arrive over the control
// socket. On stop (control command, --rounds bound, --duration cap or
// SIGTERM) it dumps one `STATS <json>` line on stdout and exits:
//
//   0  clean run, local invariants held
//   1  local violation (decode errors, unencodable payloads, filter drops)
//   2  usage / setup error
//   3  bound exceeded (--duration wall cap, or no `start` in time)
//
// Examples:
//   congos_d --id=0 --n=8 --rounds=64 --log=node0.log
//   congos_d --id=3 --n=8 --faults=drop:0.05,delay:2 --retransmit
#include <poll.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/flags.h"
#include "net/clock.h"
#include "net/control.h"
#include "net/fault_shim.h"
#include "net/runtime.h"
#include "net/udp_transport.h"
#include "sim/faults.h"

using namespace congos;

namespace {

const char kUsage[] = R"(congos_d - CONGOS daemon over UDP on 127.0.0.1

  --id=I            this process's id in [0, n)            (required)
  --n=N             cluster size                           (required)
  --seed=S          system seed (shared by the cluster)    (default 1)
  --tau=T           collusion tolerance                    (default 1)
  --no-degenerate   keep the fragment pipeline below the Thm 16 cutoff
  --retransmit      deadline-aware ack/retransmit hardening;
                    --retransmit-budget=B, --max-link-delay=K tune it
  --faults=SPEC     socket-level fault shim, same spec as congos_sim
                    --faults (drop/dup/delay/partition/seed)
  --rounds=R        stop after R rounds                    (default 256)
  --duration=SEC    wall-clock cap; exceeded -> exit 3     (default 120)
  --log=PATH        event log (inject/deliver/recv lines)
  --state=PATH      durable checkpoint file (net/checkpoint.h): an
                    append-only journal, emptied on a fresh start; every
                    --checkpoint-every rounds and at exit one batch with
                    the events since the last save is appended and fsynced
  --checkpoint-every=K  rounds between checkpoint appends  (default 8)
  --resume=PATH     reload a checkpoint and rejoin the running cluster; a
                    torn final batch is dropped (the state file is rewritten
                    whole before appending again), corrupted/stale files
                    are rejected (exit 2)
  --compress        LZ4-compress outbound datagrams (plain peers interop;
                    refused at startup when LZ4 is unavailable)
  --no-batch        single-syscall UDP path (no sendmmsg/recvmmsg)
  --queue-cap=K     per-peer send-queue cap, 0 = unbounded (default 512)
  --port=P          data socket port, 0 = ephemeral        (default 0)
  --control-port=P  control socket port, 0 = ephemeral     (default 0)
  --start-timeout-ms=MS  max wait for `start`              (default 30000)
  --help            this text
)";

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

int fail_usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n\n%s", msg.c_str(), kUsage);
  return 2;
}

/// The control socket is raw POSIX (unlike the data path it must reply to
/// whoever sent the command, not to a fixed peer table).
int open_control(std::uint16_t port, std::uint16_t* bound, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  *bound = ntohs(addr.sin_port);
  return fd;
}

struct RuntimeSink final : net::DatagramSink {
  net::NodeRuntime* rt = nullptr;
  void on_datagram(ProcessId from_hint,
                   std::span<const std::uint8_t> data) override {
    rt->handle_datagram(from_hint, data);
  }
};

/// One control datagram handled; replies go back to the sender address.
struct Controller {
  int fd = -1;
  net::NodeRuntime* rt = nullptr;
  /// Cluster size: an inject whose dest is not n bits wide is refused.
  std::size_t n = 0;
  net::StartCommand start;
  bool started = false;
  bool stop = false;
  /// Injections arriving before round 0 opens, applied right after start.
  std::vector<net::InjectCommand> pending;
  /// seqs already injected: a retried `inject` whose ack got lost must be
  /// re-acked, never re-injected.
  std::vector<std::uint64_t> seen_seqs;

  void reply(const sockaddr_in& to, const std::string& line) const {
    (void)::sendto(fd, line.data(), line.size(), 0,
                   reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  }

  void handle(const std::string& text, const sockaddr_in& from) {
    net::Line line;
    if (!net::parse_line(text, &line)) return;
    if (line.verb == "start") {
      net::StartCommand cmd;
      std::string err;
      if (!net::parse_start(line, &cmd, &err)) {
        reply(from, "err start " + err);
        return;
      }
      if (!started) {
        start = cmd;
        started = true;
      }
      reply(from, "ok start");
    } else if (line.verb == "inject") {
      net::InjectCommand cmd;
      std::string err;
      if (!net::parse_inject(line, &cmd, &err) ||
          !net::validate_inject(cmd, n, &err)) {
        reply(from, "err inject " + err);
        return;
      }
      bool dup = false;
      for (const std::uint64_t s : seen_seqs) dup = dup || (s == cmd.seq);
      if (!dup) {
        seen_seqs.push_back(cmd.seq);
        if (rt != nullptr && rt->started()) {
          rt->inject(cmd.seq, cmd.deadline, std::move(cmd.dest),
                     std::move(cmd.data));
          rt->flush_log();
        } else {
          pending.push_back(std::move(cmd));
        }
      }
      reply(from, "ok inject seq=" + std::to_string(cmd.seq));
    } else if (line.verb == "stats") {
      reply(from, rt != nullptr && rt->started() ? rt->stats_json() : "{}");
    } else if (line.verb == "stop") {
      stop = true;
      reply(from, "ok stop");
    } else {
      reply(from, "err unknown " + line.verb);
    }
  }

  void drain() {
    char buf[65536];
    for (;;) {
      sockaddr_in from{};
      socklen_t from_len = sizeof(from);
      const ssize_t got = ::recvfrom(fd, buf, sizeof(buf), 0,
                                     reinterpret_cast<sockaddr*>(&from), &from_len);
      if (got < 0) return;  // EAGAIN or a transient error: nothing to read
      handle(std::string(buf, static_cast<std::size_t>(got)), from);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const auto unknown = flags.unknown_keys(
      {"id", "n", "seed", "tau", "no-degenerate", "retransmit",
       "retransmit-budget", "max-link-delay", "faults", "rounds", "duration",
       "log", "compress", "no-batch", "queue-cap", "port", "control-port",
       "start-timeout-ms", "state", "checkpoint-every", "resume", "help"});
  if (!unknown.empty()) return fail_usage("unknown flag --" + unknown.front());

  sim::FaultConfig faults;
  const std::string fault_spec = flags.get("faults", "");
  if (!fault_spec.empty()) {
    std::string err;
    if (!sim::parse_fault_spec(fault_spec, &faults, &err)) {
      return fail_usage("bad --faults spec: " + err);
    }
  }

  // Every numeric flag is read before any is checked or acted on, so a
  // malformed value is refused first - and before any socket is bound.
  const std::int64_t n = flags.get_int("n", 0);
  const std::int64_t id = flags.get_int("id", -1);
  const std::int64_t seed = flags.get_int("seed", 1);
  const Round max_rounds = flags.get_int("rounds", 256);
  const Round checkpoint_every = flags.get_int("checkpoint-every", 8);
  const std::int64_t tau = flags.get_int("tau", 1);
  const std::int64_t retransmit_budget = flags.get_int("retransmit-budget", 3);
  const Round max_link_delay = flags.get_int(
      "max-link-delay",
      (faults.delay_rate > 0.0 || faults.dup_rate > 0.0) ? faults.max_delay : 1);
  const std::int64_t duration_s = flags.get_int("duration", 120);
  const std::int64_t start_timeout_ms = flags.get_int("start-timeout-ms", 30000);
  const std::int64_t queue_cap = flags.get_int("queue-cap", -1);
  const std::int64_t data_port = flags.get_int("port", 0);
  const std::int64_t control_port_flag = flags.get_int("control-port", 0);
  if (!flags.malformed().empty()) {
    const std::string& key = flags.malformed().front();
    return fail_usage("--" + key + " expects a number, got '" +
                      flags.get(key, "") + "'");
  }

  if (n < 2) return fail_usage("--n must be at least 2");
  if (id < 0 || id >= n) return fail_usage("--id must be in [0, n)");
  if (max_rounds <= 0) return fail_usage("--rounds must be positive");
  if (checkpoint_every <= 0) {
    return fail_usage("--checkpoint-every must be positive");
  }
  if (data_port < 0 || data_port > 65535) {
    return fail_usage("--port must be in [0, 65535]");
  }
  if (control_port_flag < 0 || control_port_flag > 65535) {
    return fail_usage("--control-port must be in [0, 65535]");
  }

  net::NodeConfig ncfg;
  ncfg.n = static_cast<std::size_t>(n);
  ncfg.id = static_cast<ProcessId>(id);
  ncfg.seed = static_cast<std::uint64_t>(seed);
  ncfg.max_rounds = max_rounds;
  ncfg.log_path = flags.get("log", "");
  ncfg.compress = flags.get_bool("compress", false);
  ncfg.state_path = flags.get("state", "");
  const std::string resume_path = flags.get("resume", "");
  ncfg.congos.tau = static_cast<std::uint32_t>(tau);
  ncfg.congos.allow_degenerate = !flags.get_bool("no-degenerate", false);
  if (flags.get_bool("retransmit", false)) {
    ncfg.congos.retransmit.enabled = true;
    ncfg.congos.retransmit.budget = static_cast<int>(retransmit_budget);
    ncfg.congos.retransmit.max_link_delay = max_link_delay;
  }

  // A corrupted, truncated or foreign state file must fail loudly before
  // the daemon joins the wire - never fall back to a fresh start, which
  // would silently re-run rounds the cluster already saw from this id.
  net::NodeCheckpoint resume_ck;
  const bool resuming = !resume_path.empty();
  if (resuming) {
    std::string ck_err;
    if (!net::read_checkpoint_file(resume_path, &resume_ck, &ck_err)) {
      std::fprintf(stderr, "error: --resume: %s\n", ck_err.c_str());
      return 2;
    }
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  net::UdpTransport udp;
  std::string err;
  if (!udp.open(static_cast<std::uint16_t>(data_port), &err)) {
    std::fprintf(stderr, "error: data socket: %s\n", err.c_str());
    return 2;
  }
  if (flags.get_bool("no-batch", false)) udp.set_batching(false);
  if (queue_cap >= 0) udp.set_queue_cap(static_cast<std::size_t>(queue_cap));
  std::uint16_t control_port = 0;
  const int control_fd = open_control(
      static_cast<std::uint16_t>(control_port_flag), &control_port, &err);
  if (control_fd < 0) {
    std::fprintf(stderr, "error: control socket: %s\n", err.c_str());
    return 2;
  }

  std::printf("READY id=%u data=%u control=%u\n", ncfg.id, udp.local_port(),
              control_port);
  std::fflush(stdout);

  net::FaultShim shim(&udp, faults, ncfg.id);
  net::Transport* transport = faults.enabled()
                                  ? static_cast<net::Transport*>(&shim)
                                  : static_cast<net::Transport*>(&udp);
  net::NodeRuntime runtime(ncfg, transport, faults.enabled() ? &shim : nullptr);

  Controller ctl;
  ctl.fd = control_fd;
  ctl.rt = &runtime;
  ctl.n = ncfg.n;
  // Control-level idempotence must survive the crash too: a runner retry of
  // an inject the previous incarnation already took has to be re-acked,
  // never re-injected, so the journal's seqs seed the duplicate filter.
  if (resuming) {
    for (const net::CheckpointEvent& e : resume_ck.events) {
      if (e.kind == net::CheckpointEvent::Kind::kInject) {
        ctl.seen_seqs.push_back(e.seq);
      }
    }
  }

  const std::int64_t boot_ms = net::wall_ms_now();

  // Phase 1: wait for `start` (or stop/signal/timeout).
  while (!ctl.started && !ctl.stop && g_signal == 0) {
    if (net::wall_ms_now() - boot_ms > start_timeout_ms) {
      std::fprintf(stderr, "error: no start command within %lld ms\n",
                   static_cast<long long>(start_timeout_ms));
      return 3;
    }
    pollfd pfd{control_fd, POLLIN, 0};
    (void)::poll(&pfd, 1, 100);
    ctl.drain();
  }
  if (ctl.stop || g_signal != 0) {
    std::printf("STATS {}\n");
    return 0;
  }

  for (std::size_t p = 0; p < ctl.start.peer_ports.size(); ++p) {
    udp.set_peer(static_cast<ProcessId>(p), ctl.start.peer_ports[p]);
  }
  if (ctl.start.peer_ports.size() != ncfg.n) {
    std::fprintf(stderr, "error: start listed %zu peers for n=%zu\n",
                 ctl.start.peer_ports.size(), ncfg.n);
    return 2;
  }
  const net::RoundClock clock(ctl.start.epoch_ms, ctl.start.round_ms);
  runtime.set_clock_binding(ctl.start.epoch_ms, ctl.start.round_ms);
  if (resuming) {
    // Staleness gate: the checkpoint must come from *this* cluster run.
    // The shared epoch the runner just distributed is the run's identity.
    std::string ck_err;
    if (!net::validate_checkpoint_clock(resume_ck, ctl.start.epoch_ms,
                                        ctl.start.round_ms, &ck_err)) {
      std::fprintf(stderr, "error: --resume: %s\n", ck_err.c_str());
      return 2;
    }
  }

  // Phase 2: idle until round 0 opens, then boot the protocol. A resumed
  // daemon rejoins mid-run, so the wall clock is already past round 0 and
  // this loop exits immediately; the round loop's catch-up then ticks the
  // downtime rounds (empty inboxes, live sends) up to the current round.
  while (clock.round_at(net::wall_ms_now()) < 0 && g_signal == 0 && !ctl.stop) {
    pollfd pfd{control_fd, POLLIN, 0};
    (void)::poll(&pfd, 1,
                 static_cast<int>(clock.ms_until_next(net::wall_ms_now())));
    ctl.drain();
  }
  if (resuming ? !runtime.resume(resume_ck, &err) : !runtime.start(&err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  resume_ck = net::NodeCheckpoint{};  // replayed and on disk: keep memory flat
  for (net::InjectCommand& cmd : ctl.pending) {
    runtime.inject(cmd.seq, cmd.deadline, std::move(cmd.dest),
                   std::move(cmd.data));
  }
  ctl.pending.clear();

  // Phase 3: the round loop.
  RuntimeSink sink;
  sink.rt = &runtime;
  bool timed_out = false;
  while (!ctl.stop && g_signal == 0 && !runtime.done()) {
    const std::int64_t now_ms = net::wall_ms_now();
    if (now_ms - boot_ms > duration_s * 1000) {
      timed_out = true;
      break;
    }
    const Round target = clock.round_at(now_ms);
    if (target > runtime.now()) {
      udp.drain(sink);  // everything that arrived inside the closing window
      runtime.advance_to(target);
      runtime.flush_log();
      if (!ncfg.state_path.empty() &&
          runtime.now() - runtime.last_checkpoint_round() >= checkpoint_every &&
          !runtime.save_checkpoint(&err)) {
        std::fprintf(stderr, "warning: checkpoint: %s\n", err.c_str());
      }
      continue;
    }
    udp.flush();
    pollfd pfds[2] = {{udp.fd(), POLLIN, 0}, {control_fd, POLLIN, 0}};
    if (udp.want_write()) pfds[0].events |= POLLOUT;
    const int timeout =
        static_cast<int>(std::min<std::int64_t>(clock.ms_until_next(now_ms), 100));
    (void)::poll(pfds, 2, timeout);
    if ((pfds[0].revents & POLLIN) != 0) udp.drain(sink);
    if ((pfds[1].revents & POLLIN) != 0) ctl.drain();
  }

  runtime.flush_log();
  // Final checkpoint on every exit path - stop command, --rounds bound,
  // SIGTERM - so a graceful shutdown is always resumable.
  if (!ncfg.state_path.empty() && !runtime.save_checkpoint(&err)) {
    std::fprintf(stderr, "warning: checkpoint: %s\n", err.c_str());
  }
  std::printf("STATS %s\n", runtime.stats_json().c_str());
  std::fflush(stdout);
  ::close(control_fd);
  if (timed_out) {
    std::fprintf(stderr, "error: --duration=%llds exceeded at round %lld\n",
                 static_cast<long long>(duration_s),
                 static_cast<long long>(runtime.now()));
    return 3;
  }
  return runtime.healthy() ? 0 : 1;
}
