// serve-mixed: an in-process chameleond (daemon::Daemon on a PipePair,
// production frame codec, pool threads = nproc) under an open-loop,
// fixed-interval, seeded schedule in two phases, `low` and `high`, at
// about a third and two thirds of the seed capacity of this mix, then a
// saturating closed-loop burst whose completion rate is the daemon's
// throughput (`work_per_s`).
//
// PROVISIONAL TRAFFIC MIX. The mix is a guess, not derived from any
// recorded chameleond traffic (README.md, "Provisional traffic mix"): 80%
// `micro` and 20% `feret` repairs at the daemon's default tau, a seed per
// request, and every request sent twice, once with "incremental":true,
// so half the traffic rides the warm-index cache and each incremental
// request has a non-incremental twin whose digest it must equal. Only
// the rates follow a measurement (capacity). Replace the mix once a
// sample of real traffic is in the repository.
// Latency runs from each request's due time to its report frame.
//
// Traced run: the schedule runs twice at half length on the same seed,
// each followed by its burst, first as in an untraced run, then with a
// statusz poller (queue depth, in-flight) until the schedule drains; the
// per-layer figures come from the second, and the tracing overhead is its
// schedule latency sum over the first's. The datasets
// layer is timed by calling the world builders the daemon calls per
// request, weighted by the mix.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"
#include "src/datasets/feret.h"
#include "src/embedding/simulated_embedder.h"
#include "tools/chameleond/daemon.h"
#include "tools/chameleond/frame.h"
#include "tools/chameleond/protocol.h"
#include "tools/chameleond/transport.h"
#include "tools/obsctl/json.h"

namespace perfbench {
namespace {

namespace cd = chameleon::daemon;

constexpr int kSetupRepeats = 5;
/// Fixed-interval schedule. The seed capacity of this mix, as the burst
/// measures it, is about 13 requests/s on 4 cores (a lone micro request
/// takes ~0.2 s, a FERET one ~0.6 s, each on one pool thread), so `low`
/// sends every 230 ms (~1/3) and `high` every 115 ms (~2/3).
constexpr double kLowIntervalMs = 230.0;
constexpr double kHighIntervalMs = 115.0;
/// One pair in this many is FERET: the provisional 80/20 micro/feret mix.
constexpr size_t kFeretEvery = 5;
constexpr double kFeretShare = 1.0 / kFeretEvery;
/// goodput limit on a request's latency: about twice a lone FERET
/// request at seed (~0.6 s).
constexpr double kGoodputLimitMs = 1200.0;
/// Requests spread over this many client names on the one connection,
/// so the per-client in-flight cap stays the production default.
constexpr int kClients = 4;
constexpr double kStatuszPeriodMs = 50.0;
/// Share of --seconds each open-loop phase takes; the burst gets the rest.
constexpr double kPhaseShare = 0.42;
/// The closed-loop burst: this many requests, kBurstLanes outstanding at
/// once (4 per client name, under the per-client cap of 8), so every
/// pool thread stays busy until the last few requests. Its wall time
/// follows the daemon's speed, not the load generator's.
constexpr size_t kBurstRequests = 64;
constexpr size_t kBurstLanes = 16;
/// Hard stop for a schedule's drain; past it the run fails.
constexpr double kDrainTimeoutMs = 60000.0;

struct Reply {
  Clock::time_point ack;
  Clock::time_point terminal;
  bool have_ack = false;
  bool ok = false;  ///< a report frame (an error frame is a failure)
  int64_t accepted = 0;
  int64_t queries = 0;
  bool resolved = false;
  std::string digest;
};

struct StatuszSample {
  int64_t queued = 0;
  int64_t inflight = 0;
};

/// One daemon on one connection, with a reader thread collecting every
/// frame the daemon sends back.
class Session {
 public:
  explicit Session(Inject inject) : inject_(inject) {
    cd::DaemonOptions options;  // production defaults; pool = nproc
    options.num_threads = HardwareThreads();
    daemon_ = std::make_unique<cd::Daemon>(pipe_.server(), options);
    serve_thread_ = std::thread([this] {
      serve_ok_ = daemon_->Serve().ok();
    });
    reader_thread_ = std::thread([this] { ReadLoop(); });
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session() { Shutdown(); }

  void Send(const std::string& payload) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (!cd::WriteFrame(pipe_.client(), payload).ok()) {
      throw std::runtime_error("client frame write failed");
    }
  }

  Clock::time_point Submit(const cd::RepairRequestSpec& spec) {
    ++repairs_sent_;
    Send(cd::RenderRepairRequest(spec));
    return Clock::now();
  }

  /// Blocks until the daemon has admitted or refused every repair frame
  /// sent and no request is queued or running.
  void WaitIdle() {
    const Clock::time_point start = Clock::now();
    while (true) {
      const cd::DaemonStats stats = daemon_->stats();
      const int64_t handled = stats.accepted + stats.rejected_overload +
                              stats.rejected_duplicate + stats.protocol_errors;
      if (handled >= repairs_sent_.load() && stats.active == 0) return;
      if (MsSince(start) > kDrainTimeoutMs) {
        throw std::runtime_error("daemon did not drain within the timeout");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Closes the connection, lets the daemon drain and exit, and joins
  /// both threads. Returns the daemon's final counters.
  cd::DaemonStats Shutdown() {
    if (!shut_down_) {
      shut_down_ = true;
      pipe_.client()->Close();
      serve_thread_.join();
      final_stats_ = daemon_->stats();
      pipe_.server()->Close();
      reader_thread_.join();
    }
    return final_stats_;
  }

  bool serve_ok() const { return serve_ok_; }
  cd::DaemonStats stats() const { return daemon_->stats(); }

  std::map<std::string, Reply> replies() {
    std::lock_guard<std::mutex> lock(mutex_);
    return replies_;
  }
  std::map<std::string, int> terminal_frames() {
    std::lock_guard<std::mutex> lock(mutex_);
    return terminal_frames_;
  }
  std::vector<StatuszSample> statusz() {
    std::lock_guard<std::mutex> lock(mutex_);
    return statusz_;
  }

  /// Waits until every id in `ids` has a terminal frame.
  void AwaitTerminal(const std::vector<std::string>& ids) {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool done = cv_.wait_for(
        lock, std::chrono::milliseconds(static_cast<int64_t>(kDrainTimeoutMs)),
        [&] {
          for (const std::string& id : ids) {
            if (terminal_frames_.count(id) == 0) return false;
          }
          return true;
        });
    if (!done) throw std::runtime_error("warm-up requests never finished");
  }

  /// Waits until at least one non-empty id in `ids` has a terminal frame;
  /// returns the positions of every such id.
  std::vector<size_t> AwaitAny(const std::vector<std::string>& ids) {
    std::vector<size_t> done;
    std::unique_lock<std::mutex> lock(mutex_);
    const bool any = cv_.wait_for(
        lock, std::chrono::milliseconds(static_cast<int64_t>(kDrainTimeoutMs)),
        [&] {
          for (size_t i = 0; i < ids.size(); ++i) {
            if (!ids[i].empty() && terminal_frames_.count(ids[i]) > 0) {
              done.push_back(i);
            }
          }
          return !done.empty();
        });
    if (!any) throw std::runtime_error("burst requests never finished");
    return done;
  }

 private:
  void ReadLoop() {
    while (true) {
      cd::FrameReadResult frame = cd::ReadFrame(pipe_.client());
      if (frame.kind != cd::FrameReadResult::Kind::kFrame) return;
      const Clock::time_point now = Clock::now();
      auto value = chameleon::obsctl::ParseJson(frame.payload);
      if (!value.ok()) continue;
      const std::string type = value->StringOr("type", "");
      const std::string id = value->StringOr("id", "");
      std::lock_guard<std::mutex> lock(mutex_);
      if (type == "statusz") {
        statusz_.push_back({value->IntOr("queued", 0), value->IntOr("inflight", 0)});
      } else if (type == "ack") {
        Reply& reply = replies_[id];
        reply.ack = now;
        reply.have_ack = true;
      } else if (type == "report" || (type == "error" && !id.empty())) {
        if (type == "report" && inject_ == Inject::kDropReport &&
            !dropped_one_ && id.rfind("warm", 0) != 0) {
          dropped_one_ = true;  // the known-bad outcome: a lost frame
          continue;
        }
        Reply& reply = replies_[id];
        reply.terminal = now;
        reply.ok = type == "report";
        reply.accepted = value->IntOr("accepted", 0);
        reply.queries = value->IntOr("queries", 0);
        reply.resolved = value->BoolOr("fully_resolved", false);
        reply.digest = value->StringOr("records_digest", "");
        ++terminal_frames_[id];
        cv_.notify_all();
      }
    }
  }

  Inject inject_;
  cd::PipePair pipe_;
  std::unique_ptr<cd::Daemon> daemon_;
  std::mutex write_mutex_;
  std::atomic<int64_t> repairs_sent_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, Reply> replies_;
  std::map<std::string, int> terminal_frames_;
  std::vector<StatuszSample> statusz_;
  bool dropped_one_ = false;
  std::atomic<bool> serve_ok_{false};
  bool shut_down_ = false;
  cd::DaemonStats final_stats_;
  std::thread serve_thread_;
  std::thread reader_thread_;
};

/// One daemon start plus warm-up: an incremental request per dataset, so
/// the warm-index cache holds both keys before traffic starts.
std::unique_ptr<Session> StartSession(Inject inject, double* setup_ms) {
  const Clock::time_point start = Clock::now();
  auto session = std::make_unique<Session>(inject);
  std::vector<std::string> ids;
  for (const cd::DatasetKind kind : {cd::DatasetKind::kMicro,
                                     cd::DatasetKind::kFeret}) {
    cd::RepairRequestSpec spec;
    spec.id = std::string("warm-") + cd::DatasetKindName(kind);
    spec.dataset = kind;
    spec.incremental = true;  // default seed: set-up is the same every run
    session->Submit(spec);
    ids.push_back(spec.id);
  }
  session->AwaitTerminal(ids);
  *setup_ms = MsSince(start);
  return session;
}

struct Planned {
  cd::RepairRequestSpec spec;
  double due_ms = 0.0;
  bool high = false;
  int pair = 0;  ///< index of the (dataset, seed) pair this request belongs to
};

/// Pair numbers of the burst start here, so its seeds differ from the
/// schedule's.
constexpr size_t kBurstFirstPair = size_t{1} << 20;

/// Request `i` of a fixed layout with seeded content: it belongs to pair
/// `i / 2` (the incremental twin first on even pairs), every fifth pair
/// is FERET, and the pair's repair seed derives from the workload seed.
Planned Layout(uint64_t seed, const std::string& id_prefix, size_t i,
               size_t first_pair) {
  const size_t pair = i / 2;
  Planned p;
  p.pair = static_cast<int>(first_pair + pair);
  // Appended piecewise: `"r" + std::to_string(...)` trips GCC 12's
  // false-positive -Wrestrict.
  p.spec.id = id_prefix;
  p.spec.id += std::to_string(i);
  p.spec.client = "user-";
  p.spec.client += std::to_string(i % kClients);
  p.spec.dataset =
      pair % kFeretEvery == 2 ? cd::DatasetKind::kFeret : cd::DatasetKind::kMicro;
  p.spec.seed = DeriveSeed(seed, first_pair + pair) & 0x7fffffff;
  p.spec.incremental = (i % 2 == 0) == (pair % 2 == 0);
  return p;
}

std::string IdPrefix(char kind, int round) {
  std::string prefix(1, kind);
  prefix += std::to_string(round);
  prefix += '-';
  return prefix;
}

/// The open-loop schedule: `low` then `high`, each `phase_ms` long.
std::vector<Planned> Schedule(uint64_t seed, double phase_ms, int round) {
  std::vector<double> due;
  std::vector<bool> high;
  for (double t = 0.0; t < phase_ms; t += kLowIntervalMs) {
    due.push_back(t);
    high.push_back(false);
  }
  for (double t = 0.0; t < phase_ms; t += kHighIntervalMs) {
    due.push_back(phase_ms + t);
    high.push_back(true);
  }
  if (due.size() % 2 == 1) {
    due.push_back(due.back() + kHighIntervalMs);
    high.push_back(true);
  }
  std::vector<Planned> plan;
  for (size_t i = 0; i < due.size(); ++i) {
    plan.push_back(Layout(seed, IdPrefix('r', round), i, 0));
    plan.back().due_ms = due[i];
    plan.back().high = high[i];
  }
  return plan;
}

/// The closed-loop burst's requests, in sending order.
std::vector<Planned> Burst(uint64_t seed, int round) {
  std::vector<Planned> burst;
  for (size_t i = 0; i < kBurstRequests; ++i) {
    burst.push_back(Layout(seed, IdPrefix('b', round), i, kBurstFirstPair));
  }
  return burst;
}

/// Sends a statusz frame every kStatuszPeriodMs on its own thread until
/// stopped. The destructor stops and joins the thread, so no exit path
/// leaves it joinable; a failed send ends the polling and Stop reports it.
class StatuszPoller {
 public:
  StatuszPoller(Session* session, bool enabled) {
    if (!enabled) return;
    thread_ = std::thread([this, session] {
      try {
        while (!stop_.load()) {
          session->Send(cd::RenderStatuszRequest());
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<int64_t>(kStatuszPeriodMs * 1000)));
        }
      } catch (const std::exception&) {
        failed_ = true;
      }
    });
  }

  StatuszPoller(const StatuszPoller&) = delete;
  StatuszPoller& operator=(const StatuszPoller&) = delete;

  ~StatuszPoller() { Join(); }

  /// Stops polling; throws if a poll could not be sent.
  void Stop() {
    Join();
    if (failed_.load()) throw std::runtime_error("statusz poll failed");
  }

 private:
  void Join() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::thread thread_;
};

/// Runs the burst closed loop: kBurstLanes lanes, each sending its next
/// request as soon as its previous one has a terminal frame, until every
/// request is sent and answered. A lane keeps one client name. Returns
/// the wall time from the first send to the last terminal frame.
double RunBurst(Session* session, std::vector<Planned>* burst) {
  std::vector<std::string> lanes(kBurstLanes);  // outstanding id per lane
  size_t next = 0, outstanding = 0;
  const auto send = [&](size_t lane) {
    Planned& p = (*burst)[next++];
    p.spec.client = "user-";
    p.spec.client += std::to_string(lane % kClients);
    session->Submit(p.spec);
    lanes[lane] = p.spec.id;
    ++outstanding;
  };
  const Clock::time_point start = Clock::now();
  for (size_t lane = 0; lane < kBurstLanes && next < burst->size(); ++lane) {
    send(lane);
  }
  while (outstanding > 0) {
    for (const size_t lane : session->AwaitAny(lanes)) {
      lanes[lane].clear();
      --outstanding;
      if (next < burst->size()) send(lane);
    }
  }
  return MsSince(start);
}

struct Outcome {
  std::vector<Planned> plan;
  std::vector<Planned> burst;
  std::vector<Clock::time_point> sent;
  Clock::time_point start;
  double burst_ms = 0.0;
  /// Peak resident set through set-up and the schedule, before the burst.
  double schedule_peak_rss_mb = 0.0;
  std::map<std::string, Reply> replies;
  std::vector<StatuszSample> statusz;
  cd::DaemonStats before;     ///< counters after warm-up
  cd::DaemonStats scheduled;  ///< counters after the schedule drained
  cd::DaemonStats after;      ///< counters after the burst and shutdown
};

/// Runs one schedule and then the burst on a warmed session, drains and
/// shuts it down, and checks the serving contract. The statusz poller,
/// when on, runs from the first send until the schedule has drained.
Outcome RunSchedule(std::unique_ptr<Session> session, std::vector<Planned> plan,
                    std::vector<Planned> burst, bool poll_statusz) {
  Outcome out;
  out.plan = std::move(plan);
  out.burst = std::move(burst);
  out.before = session->stats();
  {
    StatuszPoller poller(session.get(), poll_statusz);
    out.start = Clock::now();
    for (const Planned& p : out.plan) {
      std::this_thread::sleep_until(
          out.start + std::chrono::microseconds(static_cast<int64_t>(p.due_ms * 1000)));
      out.sent.push_back(session->Submit(p.spec));
    }
    session->WaitIdle();
    poller.Stop();
  }
  out.scheduled = session->stats();
  out.schedule_peak_rss_mb = PeakRssMb();
  out.burst_ms = RunBurst(session.get(), &out.burst);
  // Shutdown drains the daemon and joins the reader, so every frame the
  // daemon sent has been collected below.
  out.after = session->Shutdown();
  out.replies = session->replies();
  out.statusz = session->statusz();
  const std::map<std::string, int> terminal = session->terminal_frames();

  std::vector<Planned> all = out.plan;
  all.insert(all.end(), out.burst.begin(), out.burst.end());
  std::vector<std::string> sent_ids = {"warm-micro", "warm-feret"};
  for (const Planned& p : all) sent_ids.push_back(p.spec.id);
  Require(kCheckTerminalFrames, CheckTerminalFrames(sent_ids, terminal));
  Require(kCheckDaemonIdle, CheckDaemonIdle(out.after.active));
  if (!session->serve_ok()) throw std::runtime_error("daemon Serve failed");

  // Twins: (incremental, non-incremental) digests of each (dataset, seed).
  std::map<int, std::pair<std::string, std::string>> by_pair;
  for (const Planned& p : all) {
    const Reply& reply = out.replies[p.spec.id];
    if (!reply.ok) continue;
    auto& twin = by_pair[p.pair];
    (p.spec.incremental ? twin.first : twin.second) = reply.digest;
  }
  std::vector<std::pair<std::string, std::string>> twins;
  for (const auto& [pair, twin] : by_pair) {
    if (!twin.first.empty() && !twin.second.empty()) twins.push_back(twin);
  }
  Require(kCheckTwinDigest, CheckTwinDigests(twins));
  return out;
}

double LatencyMs(const Outcome& o, size_t i) {
  const Reply& reply = o.replies.at(o.plan[i].spec.id);
  return MsBetween(
      o.start + std::chrono::microseconds(static_cast<int64_t>(o.plan[i].due_ms * 1000)),
      reply.terminal);
}

double LatencySumMs(const Outcome& o) {
  double sum = 0.0;
  for (size_t i = 0; i < o.plan.size(); ++i) {
    if (o.replies.at(o.plan[i].spec.id).ok) sum += LatencyMs(o, i);
  }
  return sum;
}

}  // namespace

WorkloadResult RunServeMixed(const Args& args) {
  // One malloc arena, set before any thread starts. With glibc's default
  // of one arena per thread, each pool thread's arena keeps its own high
  // water mark, so peak_rss_mb swung between 44 and 71 MiB with which
  // thread happened to run which FERET request; with one arena it tracks
  // the live footprint. Throughput did not change measurably.
  mallopt(M_ARENA_MAX, 1);
  WorkloadResult result;
  std::vector<double> setup_ms(kSetupRepeats);
  std::unique_ptr<Session> session;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (session) session->Shutdown();
    session = StartSession(args.inject, &setup_ms[i]);
  }
  std::vector<double> setup_s;
  for (const double ms : setup_ms) setup_s.push_back(ms / 1000.0);
  result.end_to_end["setup_s"] = Median(setup_s);
  result.samples["setup_s"] = kSetupRepeats;
  result.named["setup_s"] = WithUnit(Median(setup_s), "s");

  // A traced run runs the schedule twice, so each phase is half as long.
  const double phase_ms = args.seconds * 1000.0 * kPhaseShare / (args.trace ? 2.0 : 1.0);
  Outcome o = RunSchedule(std::move(session), Schedule(args.seed, phase_ms, 0),
                          Burst(args.seed, 0), /*poll_statusz=*/false);
  double untraced_latency_sum = 0.0;
  if (args.trace) {
    untraced_latency_sum = LatencySumMs(o);
    double ignored = 0.0;
    o = RunSchedule(StartSession(args.inject, &ignored), Schedule(args.seed, phase_ms, 1),
                    Burst(args.seed, 1), /*poll_statusz=*/true);
  }

  // Per-request outcome, over the schedule and the burst alike.
  std::map<std::string, int64_t> queries, accepted, resolved, requests;
  int64_t total_accepted = 0, total_queries = 0, total_resolved = 0;
  const auto tally = [&](const Planned& p, const Reply& reply) {
    ++result.attempted;
    if (!reply.ok) {
      ++result.failed;
      return false;
    }
    const std::string dataset = cd::DatasetKindName(p.spec.dataset);
    queries[dataset] += reply.queries;
    accepted[dataset] += reply.accepted;
    resolved[dataset] += reply.resolved ? 1 : 0;
    ++requests[dataset];
    total_accepted += reply.accepted;
    total_queries += reply.queries;
    total_resolved += reply.resolved ? 1 : 0;
    return true;
  };

  // The open-loop schedule: latency from each due time.
  std::vector<double> low_ms, high_ms, lag_ms, ack_ms;
  std::map<std::string, std::vector<double>> latency_by_dataset;
  int64_t high_sent = 0, high_within = 0;
  Clock::time_point last_terminal = o.start;
  for (size_t i = 0; i < o.plan.size(); ++i) {
    const Planned& p = o.plan[i];
    const Reply& reply = o.replies[p.spec.id];
    lag_ms.push_back(MsBetween(
        o.start + std::chrono::microseconds(static_cast<int64_t>(p.due_ms * 1000)),
        o.sent[i]));
    if (p.high) ++high_sent;
    if (!tally(p, reply)) continue;
    const double latency = LatencyMs(o, i);
    last_terminal = std::max(last_terminal, reply.terminal);
    (p.high ? high_ms : low_ms).push_back(latency);
    if (p.high && latency <= kGoodputLimitMs) ++high_within;
    if (reply.have_ack) ack_ms.push_back(MsBetween(o.sent[i], reply.ack));
    latency_by_dataset[cd::DatasetKindName(p.spec.dataset)].push_back(latency);
  }

  // The closed-loop burst: throughput.
  int64_t burst_served = 0, burst_accepted = 0;
  for (const Planned& p : o.burst) {
    const Reply& reply = o.replies[p.spec.id];
    if (!tally(p, reply)) continue;
    ++burst_served;
    burst_accepted += reply.accepted;
  }
  const double burst_s = o.burst_ms / 1000.0;
  const double n = static_cast<double>(result.attempted);
  const double goodput = high_sent > 0 ? static_cast<double>(high_within) / high_sent : 0.0;
  const double accepted_per_s = burst_s > 0.0 ? burst_accepted / burst_s : 0.0;

  result.end_to_end["latency_p50_ms"] = Median(low_ms);
  result.samples["latency_p50_ms"] = static_cast<int64_t>(low_ms.size());
  result.end_to_end["latency_p90_ms"] = Quantile(high_ms, 0.9);
  result.samples["latency_p90_ms"] = static_cast<int64_t>(high_ms.size());
  result.end_to_end["goodput_share"] = goodput;
  result.samples["goodput_share"] = high_sent;
  // Requests served per second of the saturating burst: the daemon's
  // capacity on this mix, not the offered rate.
  result.end_to_end["work_per_s"] = burst_s > 0.0 ? burst_served / burst_s : 0.0;
  result.samples["work_per_s"] = static_cast<int64_t>(o.burst.size());
  // Memory under the stated load: the burst's extra concurrency decides
  // whether three or four FERET worlds happen to be alive at once, so it
  // is left out.
  result.end_to_end["peak_rss_mb"] = o.schedule_peak_rss_mb;
  result.named["peak_rss_mb"] = WithUnit(o.schedule_peak_rss_mb, "MB");
  result.named["failed_share"] = WithUnit(result.failed / n, "share");
  result.named["accepted_per_s"] = WithUnit(accepted_per_s, "1/s");
  result.named["queries_per_accepted"] = WithUnit(
      total_accepted > 0 ? static_cast<double>(total_queries) / total_accepted : 0.0,
      "ratio");
  result.named["resolved_share"] = WithUnit(total_resolved / n, "share");
  result.named["low.latency_p50_ms"] = WithUnit(Median(low_ms), "ms");
  result.named["low.latency_p90_ms"] = WithUnit(Quantile(low_ms, 0.9), "ms");
  result.named["high.latency_p50_ms"] = WithUnit(Median(high_ms), "ms");
  result.named["high.latency_p90_ms"] = WithUnit(Quantile(high_ms, 0.9), "ms");
  result.named["high.goodput_share"] = WithUnit(goodput, "share");

  // Per-dataset health: the micro world's defect shows here, ungated.
  auto& p = result.per_layer;
  for (const char* dataset : {"micro", "feret"}) {
    const double k = std::max<int64_t>(requests[dataset], 1);
    const std::string suffix = std::string(".") + dataset;
    p["daemon.latency_p50_ms" + suffix] = Median(latency_by_dataset[dataset]);
    p["daemon.queries_per_accepted" + suffix] =
        accepted[dataset] > 0
            ? static_cast<double>(queries[dataset]) / accepted[dataset]
            : static_cast<double>(queries[dataset]);
    p["daemon.resolved_share" + suffix] = resolved[dataset] / k;
    result.samples["daemon.latency_p50_ms" + suffix] = requests[dataset];
    result.named["resolved_share" + suffix] =
        WithUnit(resolved[dataset] / k, "share");
    result.named["queries_per_accepted" + suffix] =
        WithUnit(p["daemon.queries_per_accepted" + suffix], "ratio");
  }
  if (!args.trace) return result;

  double queued_sum = 0.0, inflight_sum = 0.0;
  for (const StatuszSample& s : o.statusz) {
    queued_sum += static_cast<double>(s.queued);
    inflight_sum += static_cast<double>(s.inflight);
  }
  const double polls = std::max<size_t>(o.statusz.size(), 1);
  // Little's law over the schedule: the poller ran from the first send
  // until the schedule drained, the window arrivals are counted over.
  const double arrivals_per_ms = (o.scheduled.accepted - o.before.accepted) /
                                 std::max(MsBetween(o.start, last_terminal), 1.0);
  const int64_t hits = o.after.index_warm_hits - o.before.index_warm_hits;
  const int64_t lookups = hits + o.after.index_warm_misses - o.before.index_warm_misses;
  p["daemon.ack_ms"] = Median(ack_ms);
  p["daemon.queued_mean"] = queued_sum / polls;
  p["daemon.inflight_mean"] = inflight_sum / polls;
  p["daemon.queue_wait_ms"] =
      arrivals_per_ms > 0.0 ? (queued_sum / polls) / arrivals_per_ms : 0.0;
  p["daemon.admission_rejects"] =
      static_cast<double>(o.after.rejected_overload - o.before.rejected_overload);
  p["daemon.index_warm_hit_ratio"] =
      lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  p["loadgen.lag_p90_ms"] = Quantile(lag_ms, 0.9);
  p["trace.overhead_share"] =
      untraced_latency_sum > 0.0 ? LatencySumMs(o) / untraced_latency_sum : 0.0;
  result.samples["daemon.ack_ms"] = static_cast<int64_t>(ack_ms.size());
  result.samples["daemon.queued_mean"] = static_cast<int64_t>(o.statusz.size());
  result.samples["loadgen.lag_p90_ms"] = static_cast<int64_t>(lag_ms.size());

  // The datasets layer, timed from outside: the world builders each
  // request calls, weighted by the mix.
  const chameleon::embedding::SimulatedEmbedder embedder;
  Clock::time_point start = Clock::now();
  auto micro = cd::MakeMicroCorpus(&embedder);
  const double micro_ms = MsSince(start);
  start = Clock::now();
  auto feret = chameleon::datasets::MakeFeret(&embedder,
                                              chameleon::datasets::FeretOptions());
  const double feret_ms = MsSince(start);
  if (!micro.ok() || !feret.ok()) throw std::runtime_error("world build failed");
  p["datasets.world_build_ms"] =
      (1.0 - kFeretShare) * micro_ms + kFeretShare * feret_ms;
  p["datasets.tuples_built"] =
      (1.0 - kFeretShare) * micro->dataset.size() + kFeretShare * feret->dataset.size();
  return result;
}

}  // namespace perfbench
