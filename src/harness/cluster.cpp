#include "harness/cluster.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "congos/congos_process.h"
#include "net/checkpoint.h"
#include "net/clock.h"
#include "net/control.h"
#include "wire/envelope.h"

namespace congos::harness {
namespace {

struct Daemon {
  pid_t pid = -1;
  int stdout_fd = -1;          // read end of the stdout pipe
  std::uint16_t data_port = 0;
  std::uint16_t control_port = 0;
  std::string stdout_tail;     // everything read after READY, all incarnations
  int exit_code = -1;
};

/// True when daemons keep durable checkpoints: asked for explicitly, or
/// implied by a kill plan (a respawn needs a state file to resume from).
bool durable(const ClusterConfig& cfg) {
  return cfg.durable_state || !cfg.kill_plan.empty();
}

std::string state_path(const ClusterConfig& cfg, ProcessId id) {
  return cfg.workdir + "/state" + std::to_string(id) + ".ckpt";
}

std::int64_t duration_for(const ClusterConfig& cfg, ProcessId id) {
  if (id < cfg.duration_overrides.size() && cfg.duration_overrides[id] > 0) {
    return cfg.duration_overrides[id];
  }
  return cfg.duration_s;
}

/// Per-spawn variation: a respawn must reuse the dead incarnation's ports
/// (the peers' tables are fixed at `start`) and resume from its state file.
struct SpawnExtra {
  bool resume = false;
  std::uint16_t data_port = 0;     // 0 = ephemeral
  std::uint16_t control_port = 0;  // 0 = ephemeral
};

std::vector<std::string> daemon_args(const ClusterConfig& cfg, ProcessId id,
                                     const SpawnExtra& extra) {
  std::vector<std::string> args;
  args.push_back(cfg.daemon);
  args.push_back("--id=" + std::to_string(id));
  args.push_back("--n=" + std::to_string(cfg.n));
  args.push_back("--seed=" + std::to_string(cfg.seed));
  args.push_back("--tau=" + std::to_string(cfg.tau));
  args.push_back("--rounds=" + std::to_string(cfg.rounds));
  args.push_back("--duration=" + std::to_string(duration_for(cfg, id)));
  args.push_back("--log=" + cfg.workdir + "/node" + std::to_string(id) + ".log");
  if (cfg.no_degenerate) args.push_back("--no-degenerate");
  if (cfg.retransmit) {
    args.push_back("--retransmit");
    args.push_back("--max-link-delay=" + std::to_string(cfg.max_link_delay));
  }
  if (!cfg.fault_spec.empty()) args.push_back("--faults=" + cfg.fault_spec);
  if (!cfg.udp_batch) args.push_back("--no-batch");
  if (cfg.compress) args.push_back("--compress");
  if (durable(cfg)) {
    args.push_back("--state=" + state_path(cfg, id));
    args.push_back("--checkpoint-every=" + std::to_string(cfg.checkpoint_every));
  }
  if (extra.resume) args.push_back("--resume=" + state_path(cfg, id));
  if (extra.data_port != 0) {
    args.push_back("--port=" + std::to_string(extra.data_port));
    args.push_back("--control-port=" + std::to_string(extra.control_port));
  }
  return args;
}

bool spawn_daemon(const ClusterConfig& cfg, ProcessId id, Daemon* d,
                  std::string* error, const SpawnExtra& extra = {}) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  const std::string err_path =
      cfg.workdir + "/node" + std::to_string(id) + ".err";
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: stdout -> pipe, stderr -> node<i>.err, exec the daemon.
    // Respawns append: the first incarnation's stderr is crash evidence.
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    const int ef = ::open(err_path.c_str(),
                          O_WRONLY | O_CREAT | (extra.resume ? O_APPEND : O_TRUNC),
                          0644);
    if (ef >= 0) {
      ::dup2(ef, STDERR_FILENO);
      ::close(ef);
    }
    const std::vector<std::string> args = daemon_args(cfg, id, extra);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "execv %s: %s\n", argv[0], std::strerror(errno));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  d->pid = pid;
  d->stdout_fd = pipe_fds[0];
  return true;
}

/// Reads one '\n'-terminated line from fd, polling up to `deadline_ms` wall
/// time. Returns false on timeout/EOF.
bool read_line(int fd, std::int64_t deadline_ms, std::string* line) {
  line->clear();
  char c = 0;
  for (;;) {
    const ssize_t got = ::read(fd, &c, 1);
    if (got == 1) {
      if (c == '\n') return true;
      line->push_back(c);
      continue;
    }
    if (got == 0) return false;  // EOF
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return false;
    const std::int64_t now = net::wall_ms_now();
    if (now >= deadline_ms) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(std::min<std::int64_t>(
                            deadline_ms - now, 200))) < 0 &&
        errno != EINTR) {
      return false;
    }
  }
}

bool parse_ready(const std::string& text, ProcessId expect_id, Daemon* d) {
  net::Line line;
  if (!net::parse_line(text, &line) || line.verb != "READY") return false;
  bool ok = true;
  const std::int64_t id = line.get_int("id", &ok);
  const std::int64_t data = line.get_int("data", &ok);
  const std::int64_t control = line.get_int("control", &ok);
  if (!ok || id != static_cast<std::int64_t>(expect_id) || data <= 0 ||
      data > 65535 || control <= 0 || control > 65535) {
    return false;
  }
  d->data_port = static_cast<std::uint16_t>(data);
  d->control_port = static_cast<std::uint16_t>(control);
  return true;
}

/// The runner's control-side socket: sends a command to one daemon's
/// control port and waits for a reply from that port.
class ControlClient {
 public:
  bool open(std::string* error) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      *error = std::string("control socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      *error = std::string("control bind: ") + std::strerror(errno);
      return false;
    }
    return true;
  }
  ~ControlClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Sends `cmd` and waits for a reply starting with `expect`; retries the
  /// send (commands and acks are datagrams; either may drop). Retries back
  /// off exponentially (x1.5 per attempt, capped at 1s) under an overall
  /// wall-clock budget, so one lost datagram or a daemon that is mid-restart
  /// does not fail the run - and a permanently dead control port cannot
  /// hang it either. Returns the full reply via *reply when non-null.
  bool request(std::uint16_t port, const std::string& cmd,
               const std::string& expect, std::string* reply = nullptr,
               int tries = 20, int wait_ms = 150,
               std::int64_t overall_ms = 15000) {
    sockaddr_in to{};
    to.sin_family = AF_INET;
    to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    to.sin_port = htons(port);
    const std::int64_t overall_deadline = net::wall_ms_now() + overall_ms;
    std::int64_t wait = wait_ms;
    for (int t = 0; t < tries && net::wall_ms_now() < overall_deadline; ++t) {
      (void)::sendto(fd_, cmd.data(), cmd.size(), 0,
                     reinterpret_cast<sockaddr*>(&to), sizeof(to));
      const std::int64_t deadline =
          std::min(net::wall_ms_now() + wait, overall_deadline);
      wait = std::min<std::int64_t>(wait + wait / 2, 1000);
      for (;;) {
        const std::int64_t now = net::wall_ms_now();
        if (now >= deadline) break;
        pollfd pfd{fd_, POLLIN, 0};
        (void)::poll(&pfd, 1, static_cast<int>(deadline - now));
        char buf[65536];
        sockaddr_in from{};
        socklen_t from_len = sizeof(from);
        const ssize_t got =
            ::recvfrom(fd_, buf, sizeof(buf), 0,
                       reinterpret_cast<sockaddr*>(&from), &from_len);
        if (got < 0) continue;
        if (ntohs(from.sin_port) != port) continue;  // stale reply
        const std::string text(buf, static_cast<std::size_t>(got));
        if (text.rfind(expect, 0) == 0) {
          if (reply != nullptr) *reply = text;
          return true;
        }
      }
    }
    return false;
  }

 private:
  int fd_ = -1;
};

void sleep_until(std::int64_t wall_ms) {
  for (;;) {
    const std::int64_t now = net::wall_ms_now();
    if (now >= wall_ms) return;
    ::usleep(static_cast<useconds_t>(
        std::min<std::int64_t>(wall_ms - now, 100) * 1000));
  }
}

/// Drains whatever stdout remains (the STATS line) once the writer is gone
/// and closes the pipe. The tail accumulates across incarnations.
void drain_stdout(Daemon* d) {
  if (d->stdout_fd < 0) return;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::read(d->stdout_fd, buf, sizeof(buf));
    if (got <= 0) break;
    d->stdout_tail.append(buf, static_cast<std::size_t>(got));
  }
  ::close(d->stdout_fd);
  d->stdout_fd = -1;
}

/// Status word -> the exit code the shell would report.
int exit_code_of(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

/// Polls for p to exit until `deadline_ms`; true (with *status) once reaped.
bool wait_until(pid_t p, std::int64_t deadline_ms, int* status) {
  for (;;) {
    const pid_t got = ::waitpid(p, status, WNOHANG);
    if (got == p) return true;
    if (got < 0 && errno != EINTR) return false;  // ECHILD: nothing to reap
    if (net::wall_ms_now() >= deadline_ms) return false;
    ::usleep(10 * 1000);
  }
}

/// Reaps `d`, escalating politely: up to `grace_ms` for a voluntary exit,
/// SIGTERM and another `grace_ms` (the daemon checkpoints and dumps STATS
/// on SIGTERM), then SIGKILL - which cannot be ignored - followed by a
/// blocking wait. The zombie is always collected, and exit_code records
/// the real status (exit code, or 128+signal), never an assumption about
/// which escalation step landed.
void reap(Daemon* d, std::int64_t grace_ms) {
  if (d->pid >= 0) {
    int status = 0;
    bool reaped = wait_until(d->pid, net::wall_ms_now() + grace_ms, &status);
    if (!reaped) {
      (void)::kill(d->pid, SIGTERM);
      reaped = wait_until(d->pid, net::wall_ms_now() + grace_ms, &status);
    }
    if (!reaped) {
      (void)::kill(d->pid, SIGKILL);
      pid_t got;
      do {
        got = ::waitpid(d->pid, &status, 0);
      } while (got < 0 && errno == EINTR);
      reaped = got == d->pid;
    }
    d->exit_code = reaped ? exit_code_of(status) : -1;
    d->pid = -1;
  }
  drain_stdout(d);
}

/// One respawn attempt: fork a fresh incarnation on the dead one's ports
/// with --resume, wait for its READY, and re-send the original `start`
/// command (same epoch - the daemon validates its state file against it
/// and rejects stale state with exit 2, which shows up here as a missing
/// ack). On any failure the half-started child is killed and reaped so a
/// retry starts clean.
bool respawn_once(const ClusterConfig& cfg, ProcessId id, Daemon* d,
                  const std::string& start_line, ControlClient* control,
                  std::string* why) {
  SpawnExtra extra;
  extra.resume = true;
  extra.data_port = d->data_port;
  extra.control_port = d->control_port;
  Daemon fresh;
  if (!spawn_daemon(cfg, id, &fresh, why, extra)) return false;
  const int fl = ::fcntl(fresh.stdout_fd, F_GETFL, 0);
  ::fcntl(fresh.stdout_fd, F_SETFL, fl | O_NONBLOCK);

  const auto abandon = [&](const std::string& reason) {
    *why = reason;
    if (fresh.pid > 0) {
      (void)::kill(fresh.pid, SIGKILL);
      int st = 0;
      pid_t got;
      do {
        got = ::waitpid(fresh.pid, &st, 0);
      } while (got < 0 && errno == EINTR);
    }
    drain_stdout(&fresh);
    d->stdout_tail += fresh.stdout_tail;
    return false;
  };

  std::string line;
  Daemon parsed = fresh;
  if (!read_line(fresh.stdout_fd, net::wall_ms_now() + 5000, &line) ||
      !parse_ready(line, id, &parsed)) {
    return abandon("no READY from respawned daemon (got '" + line + "')");
  }
  if (parsed.data_port != d->data_port ||
      parsed.control_port != d->control_port) {
    return abandon("respawned daemon bound different ports");
  }
  if (!control->request(parsed.control_port, start_line, "ok start", nullptr,
                        /*tries=*/10, /*wait_ms=*/100, /*overall_ms=*/3000)) {
    return abandon("respawned daemon never acked start");
  }
  d->pid = fresh.pid;
  d->stdout_fd = fresh.stdout_fd;
  return true;
}

std::string stats_line_of(const std::string& tail) {
  std::istringstream in(tail);
  std::string line;
  std::string stats;
  while (std::getline(in, line)) {
    if (line.rfind("STATS ", 0) == 0) stats = line.substr(6);
  }
  return stats;
}

struct LoggedDelivery {
  ProcessId at = kNoProcess;
  RumorUid uid;
  Round when = 0;
  std::vector<std::uint8_t> data;
};

}  // namespace

void audit_cluster_logs(const ClusterConfig& cfg, ClusterResult* r) {
  std::vector<std::pair<sim::Rumor, Round>> injects;
  std::vector<LoggedDelivery> deliveries;
  std::vector<std::pair<std::vector<std::uint8_t>, Round>> frames;
  // The auditors keep per-process state, so a line naming a process outside
  // [0, n) is a bad line, never an index.
  const auto is_process = [&cfg](std::int64_t id) {
    return id >= 0 && static_cast<std::uint64_t>(id) < cfg.n;
  };

  for (std::size_t i = 0; i < cfg.n; ++i) {
    const std::string path = cfg.workdir + "/node" + std::to_string(i) + ".log";
    std::ifstream in(path);
    std::string text;
    while (std::getline(in, text)) {
      if (text.empty()) continue;
      net::Line line;
      if (!net::parse_line(text, &line)) {
        ++r->log_parse_errors;
        continue;
      }
      bool ok = true;
      if (line.verb == "inject") {
        sim::Rumor rumor;
        Round round = 0;
        std::string err;
        if (!net::parse_inject_event(line, &rumor, &round, &err) ||
            !is_process(rumor.uid.source) || rumor.dest.size() != cfg.n) {
          ++r->log_parse_errors;
          continue;
        }
        injects.emplace_back(std::move(rumor), round);
      } else if (line.verb == "deliver") {
        LoggedDelivery d;
        d.when = line.get_int("round", &ok);
        const std::int64_t at = line.get_int("at", &ok);
        const std::int64_t src = line.get_int("src", &ok);
        d.uid.seq = static_cast<std::uint64_t>(line.get_int("seq", &ok));
        if (!ok || !net::from_hex(line.get("data", &ok), &d.data) || !ok ||
            !is_process(at) || !is_process(src)) {
          ++r->log_parse_errors;
          continue;
        }
        d.at = static_cast<ProcessId>(at);
        d.uid.source = static_cast<ProcessId>(src);
        deliveries.push_back(std::move(d));
      } else if (line.verb == "recv") {
        const Round round = line.get_int("round", &ok);
        std::vector<std::uint8_t> frame;
        if (!ok || !net::from_hex(line.get("frame", &ok), &frame) || !ok) {
          ++r->log_parse_errors;
          continue;
        }
        frames.emplace_back(std::move(frame), round);
      } else {
        ++r->log_parse_errors;
      }
    }
  }

  core::CongosConfig ccfg;
  ccfg.tau = cfg.tau;
  ccfg.allow_degenerate = !cfg.no_degenerate;
  const auto partitions = core::CongosProcess::build_partitions(cfg.n, ccfg);

  audit::DeliveryAuditor qod(cfg.n);
  audit::ConfidentialityAuditor conf(cfg.n, partitions.get());
  Round horizon = cfg.rounds;
  for (const auto& [rumor, round] : injects) {
    qod.on_inject(rumor, round);
    conf.on_inject(rumor, round);
    horizon = std::max(horizon, round + rumor.deadline + 1);
  }

  // Lifecycle events gate admissibility exactly like sim churn: a rumor
  // pair whose source or destination was down inside [injected, deadline]
  // is inadmissible per the paper's continuously-alive rule, so a killed
  // destination shows up as a (permitted) bonus or nothing - never as a
  // false QoD violation - while admissible pairs keep the full guarantee.
  struct LifeEv {
    Round round = 0;
    ProcessId id = 0;
    bool crash = false;
  };
  std::vector<LifeEv> life;
  {
    std::ifstream in(cfg.workdir + "/lifecycle.log");
    std::string text;
    while (std::getline(in, text)) {
      if (text.empty()) continue;
      net::Line line;
      if (!net::parse_line(text, &line)) {
        ++r->log_parse_errors;
        continue;
      }
      if (line.verb != "crash" && line.verb != "restart") {
        continue;  // respawn-failed etc.: runner bookkeeping, not liveness
      }
      bool ok = true;
      LifeEv e;
      e.round = line.get_int("round", &ok);
      const std::int64_t id = line.get_int("id", &ok);
      e.crash = line.verb == "crash";
      if (!ok || !is_process(id)) {
        ++r->log_parse_errors;
        continue;
      }
      e.id = static_cast<ProcessId>(id);
      life.push_back(e);
    }
  }
  std::stable_sort(life.begin(), life.end(),
                   [](const LifeEv& a, const LifeEv& b) {
                     return a.round < b.round;
                   });
  // A SIGKILLed daemon delivers nothing, hence kDropAll. The QoD auditor
  // reads only the event round, so the restart passes the same policy.
  for (const LifeEv& e : life) {
    if (e.crash) {
      qod.on_crash(e.id, e.round, sim::PartialDelivery::kDropAll);
    } else {
      qod.on_restart(e.id, e.round, sim::PartialDelivery::kDropAll);
    }
  }

  for (const LoggedDelivery& d : deliveries) {
    qod.on_rumor_delivered(d.at, d.uid, d.when, d.data);
  }
  for (const auto& [frame, round] : frames) {
    wire::DecodedEnvelope dec;
    if (!wire::decode_envelope(frame, &dec) || dec.env.to >= cfg.n) {
      ++r->log_parse_errors;
      continue;
    }
    conf.on_envelope_delivered(dec.env, round);
  }

  // Checkpoint files are readable by anyone with the disk, so they face
  // the same Definition 2 scrutiny as wire traffic: every journaled frame
  // is replayed through the confidentiality auditor. (Inject events are
  // the node's own rumors - it is their source, inside D by definition.)
  if (durable(cfg)) {
    for (ProcessId id = 0; id < cfg.n; ++id) {
      net::NodeCheckpoint ck;
      std::string err;
      if (!net::read_checkpoint_file(state_path(cfg, id), &ck, &err)) {
        ++r->state_file_errors;
        continue;
      }
      ++r->state_files_audited;
      for (const net::CheckpointEvent& e : ck.events) {
        if (e.kind != net::CheckpointEvent::Kind::kRecv) continue;
        wire::DecodedEnvelope dec;
        if (!wire::decode_envelope(e.frame.data(), e.frame.size(), &dec) ||
            dec.env.to >= cfg.n) {
          ++r->state_file_errors;
          continue;
        }
        conf.on_envelope_delivered(dec.env, e.round);
      }
    }
  }

  r->qod = qod.finalize(horizon);
  r->leaks = conf.leaks();
  r->foreign_fragments = conf.count(audit::ViolationKind::kForeignFragment);
  r->unknown_payloads = conf.unknown_payloads();
  r->weakest_coalition = conf.weakest_rumor_coalition();
  r->injected = injects.size();
  r->deliveries = deliveries.size();
  r->recv_frames = frames.size();
}

std::vector<KillEvent> make_kill_schedule(const KillScheduleConfig& gen,
                                          std::size_t n, Round rounds) {
  Rng rng(gen.seed);
  const Round down_max = std::max(gen.down_min, gen.down_max);
  Round max_round = gen.max_round;
  if (max_round <= 0) {
    // Leave the worst-case victim time to resume and drain: downtime plus
    // a rejoin cushion before the round budget runs out.
    max_round = rounds - down_max - 8;
  }
  if (max_round < gen.min_round) max_round = gen.min_round;

  std::vector<bool> excluded(n, false);
  for (const ProcessId p : gen.protected_ids) {
    if (p < n) excluded[p] = true;
  }
  std::vector<KillEvent> plan;
  for (std::size_t k = 0; k < gen.kills; ++k) {
    // Distinct victims, like RandomChurn's at-most-one-crash-per-process
    // constraint between restarts: killing a daemon twice would need its
    // second checkpoint to land between the two kills, which a static
    // schedule cannot guarantee.
    std::vector<ProcessId> candidates;
    for (ProcessId p = 0; p < n; ++p) {
      if (!excluded[p]) candidates.push_back(p);
    }
    if (candidates.empty()) break;
    KillEvent e;
    e.target = candidates[rng.next_below(candidates.size())];
    e.kill_round =
        rng.uniform_int(gen.min_round, max_round);
    e.down_rounds = rng.uniform_int(gen.down_min, down_max);
    excluded[e.target] = true;
    plan.push_back(e);
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const KillEvent& a, const KillEvent& b) {
                     return a.kill_round < b.kill_round;
                   });
  return plan;
}

ClusterResult run_cluster(const ClusterConfig& cfg) {
  ClusterResult result;
  if (cfg.daemon.empty()) {
    result.error = "no daemon binary configured";
    return result;
  }
  if (cfg.n < 2) {
    result.error = "cluster needs n >= 2";
    return result;
  }
  ::mkdir(cfg.workdir.c_str(), 0755);  // best effort; open errors surface below

  std::vector<Daemon> daemons(cfg.n);
  const auto fail = [&](const std::string& why) {
    for (Daemon& d : daemons) {
      if (d.pid > 0) ::kill(d.pid, SIGKILL);
      reap(&d, 1000);
    }
    result.error = why;
    return result;
  };

  for (ProcessId id = 0; id < cfg.n; ++id) {
    std::string err;
    if (!spawn_daemon(cfg, id, &daemons[id], &err)) {
      return fail("spawn daemon " + std::to_string(id) + ": " + err);
    }
    // The READY read below polls, so the pipe must not block.
    const int fl = ::fcntl(daemons[id].stdout_fd, F_GETFL, 0);
    ::fcntl(daemons[id].stdout_fd, F_SETFL, fl | O_NONBLOCK);
  }

  const std::int64_t ready_deadline = net::wall_ms_now() + 15000;
  for (ProcessId id = 0; id < cfg.n; ++id) {
    std::string line;
    if (!read_line(daemons[id].stdout_fd, ready_deadline, &line) ||
        !parse_ready(line, id, &daemons[id])) {
      return fail("daemon " + std::to_string(id) + " sent no READY (got '" +
                  line + "')");
    }
  }

  ControlClient control;
  {
    std::string err;
    if (!control.open(&err)) return fail(err);
  }

  net::StartCommand start;
  start.round_ms = cfg.round_ms;
  start.epoch_ms = net::wall_ms_now() + 400;  // time to ack start everywhere
  for (const Daemon& d : daemons) start.peer_ports.push_back(d.data_port);
  const std::string start_line = net::encode_start(start);
  for (ProcessId id = 0; id < cfg.n; ++id) {
    if (!control.request(daemons[id].control_port, start_line, "ok start")) {
      return fail("daemon " + std::to_string(id) + " never acked start");
    }
  }
  const net::RoundClock clock(start.epoch_ms, start.round_ms);

  // Injections and scheduled kills/respawns share one supervised timeline,
  // and a waitpid sweep between events catches any unscheduled death - a
  // daemon that dies off-schedule is recorded and surfaced, never respawned
  // (masking a real crash would hide exactly the bug chaos runs hunt for).
  std::vector<ClusterInject> plan = cfg.injections;
  std::stable_sort(plan.begin(), plan.end(),
                   [](const ClusterInject& a, const ClusterInject& b) {
                     return a.round < b.round;
                   });
  std::vector<KillEvent> kills = cfg.kill_plan;
  std::stable_sort(kills.begin(), kills.end(),
                   [](const KillEvent& a, const KillEvent& b) {
                     return a.kill_round < b.kill_round;
                   });
  for (const KillEvent& k : kills) {
    if (k.target >= cfg.n || k.kill_round < 1 || k.down_rounds < 1) {
      return fail("bad kill plan entry (target " + std::to_string(k.target) +
                  " round " + std::to_string(k.kill_round) + ")");
    }
  }

  // Every lifecycle event lands here for the offline auditors: `crash` and
  // `restart` lines drive the continuously-alive admissibility rule.
  std::ofstream lifecycle(cfg.workdir + "/lifecycle.log", std::ios::trunc);

  struct PendingRespawn {
    ProcessId id = 0;
    std::int64_t at_ms = 0;
  };
  std::vector<PendingRespawn> respawns;
  std::size_t next_kill = 0;
  std::size_t next_inject = 0;
  const std::int64_t end_ms = clock.start_of(cfg.rounds) + 200;

  for (;;) {
    const std::int64_t now_ms = net::wall_ms_now();
    if (now_ms >= end_ms) break;

    // Scheduled kills fire mid-round - SIGKILL, no grace, a real crash:
    // whatever the daemon buffered since its last checkpoint is gone.
    while (next_kill < kills.size() &&
           now_ms >=
               clock.start_of(kills[next_kill].kill_round) + cfg.round_ms / 2) {
      const KillEvent& k = kills[next_kill++];
      Daemon& d = daemons[k.target];
      if (d.pid <= 0) continue;  // an unexpected exit beat the schedule
      (void)::kill(d.pid, SIGKILL);
      int st = 0;
      pid_t got;
      do {
        got = ::waitpid(d.pid, &st, 0);
      } while (got < 0 && errno == EINTR);
      drain_stdout(&d);
      d.pid = -1;
      ++result.scheduled_kills;
      lifecycle << "crash round=" << clock.round_at(net::wall_ms_now())
                << " id=" << k.target << " scheduled=1 code="
                << exit_code_of(st) << "\n"
                << std::flush;
      respawns.push_back(
          {k.target, clock.start_of(k.kill_round + k.down_rounds)});
    }

    // Injections due this round.
    while (next_inject < plan.size() &&
           now_ms >= clock.start_of(plan[next_inject].round) + cfg.round_ms / 4) {
      const ClusterInject& inj = plan[next_inject++];
      if (inj.source >= cfg.n) return fail("inject source out of range");
      net::InjectCommand cmd;
      cmd.seq = inj.seq;
      cmd.deadline = inj.deadline;
      cmd.dest = inj.dest;
      cmd.data = inj.data;
      if (!control.request(daemons[inj.source].control_port,
                           net::encode_inject(cmd),
                           "ok inject seq=" + std::to_string(inj.seq))) {
        return fail("daemon " + std::to_string(inj.source) +
                    " never acked inject seq=" + std::to_string(inj.seq));
      }
    }

    // Respawns whose downtime has elapsed: bounded retries with backoff.
    for (std::size_t i = 0; i < respawns.size();) {
      if (now_ms < respawns[i].at_ms) {
        ++i;
        continue;
      }
      const ProcessId id = respawns[i].id;
      respawns.erase(respawns.begin() + i);
      bool up = false;
      std::string why;
      for (int attempt = 0; attempt < cfg.respawn_retries && !up; ++attempt) {
        if (attempt > 0) {
          ::usleep(static_cast<useconds_t>((100u << attempt) * 1000u));
        }
        up = respawn_once(cfg, id, &daemons[id], start_line, &control, &why);
      }
      if (up) {
        ++result.resumes;
        lifecycle << "restart round=" << clock.round_at(net::wall_ms_now())
                  << " id=" << id << " resume=1\n"
                  << std::flush;
      } else {
        ++result.respawn_failures;
        lifecycle << "respawn-failed round="
                  << clock.round_at(net::wall_ms_now()) << " id=" << id << "\n"
                  << std::flush;
        daemons[id].stdout_tail += "\nrespawn failed: " + why + "\n";
      }
    }

    // Unscheduled deaths. Only before the round budget ends: at --rounds
    // every daemon exits on its own, and those exits belong to the final
    // reap below, not the crash ledger.
    if (clock.round_at(now_ms) < cfg.rounds) {
      for (ProcessId id = 0; id < cfg.n; ++id) {
        Daemon& d = daemons[id];
        if (d.pid <= 0) continue;
        int st = 0;
        if (::waitpid(d.pid, &st, WNOHANG) != d.pid) continue;
        drain_stdout(&d);
        d.pid = -1;
        d.exit_code = exit_code_of(st);
        ++result.unexpected_exits;
        lifecycle << "crash round=" << clock.round_at(net::wall_ms_now())
                  << " id=" << id << " scheduled=0 code=" << d.exit_code
                  << "\n"
                  << std::flush;
      }
    }

    // Sleep to the next due event, bounded by the 50ms supervision beat.
    std::int64_t next = now_ms + 50;
    if (next_kill < kills.size()) {
      next = std::min(
          next, clock.start_of(kills[next_kill].kill_round) + cfg.round_ms / 2);
    }
    if (next_inject < plan.size()) {
      next = std::min(
          next, clock.start_of(plan[next_inject].round) + cfg.round_ms / 4);
    }
    for (const PendingRespawn& p : respawns) next = std::min(next, p.at_ms);
    next = std::min(next, end_ms);
    sleep_until(std::max(next, now_ms + 1));
  }

  // Round budget exhausted: daemons exit on their own at --rounds. The
  // hardened reap collects the real exit status of every final incarnation;
  // a straggler gets SIGTERM, which takes the same checkpoint-and-STATS exit
  // path as the `stop` command.
  for (Daemon& d : daemons) reap(&d, 5000);

  for (Daemon& d : daemons) {
    result.exit_codes.push_back(d.exit_code);
    result.stats_json.push_back(stats_line_of(d.stdout_tail));
  }

  audit_cluster_logs(cfg, &result);
  return result;
}

}  // namespace congos::harness
