#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

namespace perfbench {

using namespace vca;

namespace {

// Tolerance on capacity comparisons: float rounding of byte counts over
// bucketed time, nothing more.
constexpr double kEps = 1e-9;
// Largest frame any simulated sender emits (bits). A capture stamps a
// packet's bytes when its serialization ends, so a measure window can
// hold one frame begun before it.
constexpr double kMaxFrameBits = 1500.0 * 8.0;

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

void within(const std::string& what, double got, double want, double tol,
            Failures* out) {
  if (!(std::abs(got - want) <= tol * want)) {
    out->push_back(what + " = " + fmt(got) + ", want " + fmt(want) +
                   " +/- " + fmt(tol * 100.0) + "%");
  }
}

void at_most(const std::string& what, double got, double limit,
             Failures* out) {
  if (!(got <= limit * (1.0 + kEps))) {
    out->push_back(what + " = " + fmt(got) + " exceeds " + fmt(limit));
  }
}

std::string describe_shape(const TwoPartyConfig& cfg) {
  return cfg.profile + " call (up " + fmt(cfg.c1_up.mbps_f()) + " / down " +
         fmt(cfg.c1_down.mbps_f()) + " Mbps, seed " +
         std::to_string(cfg.seed) + ")";
}

std::string competitor_name(const CompetitionConfig& cfg) {
  switch (cfg.competitor) {
    case CompetitorKind::kVca: return cfg.competitor_profile;
    case CompetitorKind::kIperfUp: return "iPerf-up";
    case CompetitorKind::kIperfDown: return "iPerf-down";
    case CompetitorKind::kNetflix: return "Netflix";
    case CompetitorKind::kYoutube: return "YouTube";
  }
  return "?";
}

}  // namespace

void check_invariants(const std::string& what, uint64_t before,
                      uint64_t after, Failures* out) {
  if (after != before) {
    out->push_back(what + ": " + std::to_string(after - before) +
                   " simulator invariant violation(s)");
  }
}

void check_table2(const TwoPartyConfig& cfg, const TwoPartyResult& r,
                  Failures* out) {
  for (const Table2Row& row : kTable2) {
    if (cfg.profile != row.profile) continue;
    std::string who = "Table 2 " + describe_shape(cfg);
    bool teams = cfg.profile == "teams";
    double band = teams ? kTable2TeamsBand : kTable2Band;
    double want_down = teams ? row.up_mbps : row.down_mbps;
    for (auto [dir, got, want] :
         {std::tuple{"up", r.c1_up_mbps, row.up_mbps},
          std::tuple{"down", r.c1_down_mbps, want_down}}) {
      if (!(got >= want / band && got <= want * band)) {
        out->push_back(who + " C1 " + dir + " Mbps = " + fmt(got) +
                       ", want " + fmt(want) + " within x/" + fmt(band));
      }
    }
    return;
  }
  out->push_back("Table 2: no paper row for profile " + cfg.profile);
}

void check_shaped_utilization(const TwoPartyConfig& cfg,
                              const TwoPartyResult& r, Failures* out) {
  std::string who = describe_shape(cfg);
  double window_s = (cfg.duration - cfg.measure_from).seconds();
  for (auto [dir, got, cap] :
       {std::tuple{"up", r.c1_up_mbps, cfg.c1_up.mbps_f()},
        std::tuple{"down", r.c1_down_mbps, cfg.c1_down.mbps_f()}}) {
    double slack = kMaxFrameBits / (cap * 1e6 * window_s);
    at_most(who + " C1 " + dir + " Mbps", got, cap * (1.0 + slack), out);
  }
  if (!(r.c1_up_mbps > 0.0) || !(r.c1_down_mbps > 0.0)) {
    out->push_back(who + ": no media flowed");
  }
}

void check_competition_shares(const CompetitionConfig& cfg,
                              const CompetitionResult& r, Failures* out) {
  std::string who = "competition " + cfg.incumbent + " vs " +
                    competitor_name(cfg) + " (seed " +
                    std::to_string(cfg.seed) + ")";
  double window_s = (cfg.competitor_len - Duration::seconds(15)).seconds();
  double slack = kMaxFrameBits / (cfg.link.mbps_f() * 1e6 * window_s);
  at_most(who + " up share sum", r.incumbent_up_share + r.competitor_up_share,
          1.0 + slack, out);
  at_most(who + " down share sum",
          r.incumbent_down_share + r.competitor_down_share, 1.0 + slack, out);
  for (double s : {r.incumbent_up_share, r.incumbent_down_share,
                   r.competitor_up_share, r.competitor_down_share}) {
    if (!(s >= 0.0)) out->push_back(who + ": negative or NaN share " + fmt(s));
  }
}

bool share_window_truncated(const CompetitionConfig& cfg,
                            const CompetitionResult& r) {
  TimePoint from = TimePoint::zero() + cfg.competitor_start +
                   Duration::seconds(15);
  TimePoint to = TimePoint::zero() + cfg.competitor_start + cfg.competitor_len;
  for (const TimeSeries* s :
       {&r.incumbent_up_series, &r.incumbent_down_series,
        &r.competitor_up_series, &r.competitor_down_series}) {
    // Samples are stamped at the end of their bucket.
    const std::vector<Sample>& v = s->samples();
    if (v.empty()) continue;
    if (v.front().at - cfg.bucket > from || v.back().at < to) return true;
  }
  return false;
}

void check_blind_fps(const std::string& label, double blind_fps,
                     double truth_fps, Failures* out) {
  if (!(truth_fps > 0.0)) {
    out->push_back(label + ": getStats() truth FPS is " + fmt(truth_fps));
    return;
  }
  within(label + " blind FPS", blind_fps, truth_fps, kBlindFpsTolerance, out);
}

double truth_median_fps(const std::vector<SecondStats>& seconds,
                        Duration from) {
  std::vector<double> v;
  TimePoint start = TimePoint::zero() + from;
  for (const SecondStats& s : seconds) {
    if (s.at > start && s.fps > 0.0) v.push_back(s.fps);
  }
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int expected_active_at_end(const ConferenceConfig& cfg) {
  // Mirrors the roster rule documented on ConferenceConfig: the last
  // `late_joiners` join staggered from churn_start, and `early_leavers`
  // from the middle of the stable roster leave staggered from churn_start.
  TimePoint end = TimePoint::zero() + cfg.duration;
  int active = cfg.participants;
  for (int k = 0; k < cfg.late_joiners; ++k) {
    if (TimePoint::zero() + cfg.churn_start + cfg.churn_step * k > end) {
      --active;
    }
  }
  for (int k = 1; k <= cfg.early_leavers; ++k) {
    if (TimePoint::zero() + cfg.churn_start + cfg.churn_step * k <= end) {
      --active;
    }
  }
  return active;
}

void check_conference(const ConferenceConfig& cfg, const ConferenceResult& r,
                      Failures* out) {
  int want = expected_active_at_end(cfg);
  if (r.active_at_end != want) {
    out->push_back("active_at_end = " + std::to_string(r.active_at_end) +
                   ", config implies " + std::to_string(want));
  }
  if (r.forwards_to_departed != 0) {
    out->push_back("forwards_to_departed = " +
                   std::to_string(r.forwards_to_departed));
  }
  for (const std::string& v : r.invariant_violations) {
    out->push_back("invariant violation: " + v);
  }
  if (static_cast<int>(r.regions.size()) != cfg.regions) {
    out->push_back("regions reported " + std::to_string(r.regions.size()) +
                   ", configured " + std::to_string(cfg.regions));
  }
  int counted = 0;
  for (const ConferenceRegionStats& rs : r.regions) {
    counted += rs.clients;
    int limit = rs.clients * (cfg.regions - 1);
    if (rs.relay_out_streams > limit) {
      out->push_back("region " + rs.name + " relay_out_streams " +
                     std::to_string(rs.relay_out_streams) + " > clients x " +
                     "(regions - 1) = " + std::to_string(limit));
    }
    at_most("region " + rs.name + " relay utilization",
            rs.relay_up_utilization, 1.0, out);
  }
  if (counted != r.active_at_end) {
    out->push_back("region client counts sum to " + std::to_string(counted) +
                   ", active_at_end " + std::to_string(r.active_at_end));
  }
  at_most("mean client down Mbps", r.mean_client_down_mbps,
          cfg.client_down.mbps_f(), out);
  at_most("mean client up Mbps", r.mean_client_up_mbps,
          cfg.client_up.mbps_f(), out);
  for (size_t i = 0; i < r.region_mean_down_mbps.size(); ++i) {
    at_most("region " + std::to_string(i) + " mean client down Mbps",
            r.region_mean_down_mbps[i], cfg.client_down.mbps_f(), out);
  }
  if (!(r.total_forwarded_packets > 0)) {
    out->push_back("no packets forwarded");
  }
}

void check_churn(const ChurnOutcome& c, Failures* out) {
  if (c.ingested_packets != c.generated_packets) {
    out->push_back("analyzer ingested " + std::to_string(c.ingested_packets) +
                   " packets, generator produced " +
                   std::to_string(c.generated_packets));
  }
  if (c.final_reports != c.promoted) {
    out->push_back("final reports " + std::to_string(c.final_reports) +
                   " != promoted generations " + std::to_string(c.promoted));
  }
  if (static_cast<int>(c.hot_fps.size()) != c.expected_hot_flows) {
    out->push_back("hot-flow reports " + std::to_string(c.hot_fps.size()) +
                   ", generator made " + std::to_string(c.expected_hot_flows));
  }
  int off = 0;
  double worst = kHotFps;
  for (double fps : c.hot_fps) {
    if (!(std::abs(fps - kHotFps) <= kHotFpsTolerance * kHotFps)) {
      ++off;
      worst = fps;
    }
  }
  if (off > 0) {
    out->push_back(std::to_string(off) + " hot flows off the generator's " +
                   fmt(kHotFps) + " fps (e.g. " + fmt(worst) + ")");
  }
  if (!c.heap_tracked) {
    out->push_back("peak live heap not measured: counting allocator absent");
  } else if (c.peak_live_bytes > c.cap_bytes) {
    out->push_back("peak live heap " + std::to_string(c.peak_live_bytes) +
                   " B over the " + std::to_string(c.cap_bytes) + " B cap");
  }
}

void check_replay(const std::vector<StreamReport>& streaming,
                  const TraceAnalysis& offline, double truth_fps,
                  Failures* out) {
  if (streaming.size() != offline.streams.size()) {
    out->push_back("replay: streaming reported " +
                   std::to_string(streaming.size()) + " flows, offline " +
                   std::to_string(offline.streams.size()));
  }
  for (const StreamReport& off : offline.streams) {
    const StreamReport* on = nullptr;
    for (const StreamReport& s : streaming) {
      if (s.key == off.key) on = &s;
    }
    if (on == nullptr) {
      out->push_back("replay: streaming lost flow " + off.describe());
      continue;
    }
    // Bounded mode keeps no per-second vector; everything else is equal.
    StreamReport a = *on;
    StreamReport b = off;
    a.fps_per_sec.clear();
    b.fps_per_sec.clear();
    if (!(a == b)) {
      out->push_back("replay: streaming and offline reports differ for " +
                     off.describe());
    }
  }
  const StreamReport* video = offline.primary_video();
  const StreamReport* on_video = nullptr;
  for (const StreamReport& s : streaming) {
    if (s.kind != StreamKind::kVideo) continue;
    if (on_video == nullptr || s.ip_bytes > on_video->ip_bytes) on_video = &s;
  }
  if (video == nullptr || on_video == nullptr) {
    out->push_back("replay: no video stream found");
    return;
  }
  check_blind_fps("replay offline", video->median_fps, truth_fps, out);
  check_blind_fps("replay streaming", on_video->median_fps, truth_fps, out);
}

}  // namespace perfbench
