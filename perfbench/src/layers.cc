#include "layers.h"

#include <algorithm>
#include <map>
#include <memory>

#include "analysis/inference.h"
#include "analysis/parse.h"
#include "cc/remb.h"
#include "cc/sender_cc.h"
#include "core/rng.h"
#include "core/scheduler.h"
#include "media/encoder.h"
#include "net/link.h"
#include "net/node.h"
#include "transport/rtp.h"
#include "transport/tcp.h"
#include "vca/profile.h"

namespace perfbench {

using namespace vca;

MetricSheet empty_layer_sheet() {
  const std::pair<const char*, const char*> entries[] = {
      {"core.events", "count"},
      {"core.events_per_s", "1/s"},
      {"core.peak_pending", "count"},
      {"core.dispatch_ns", "ns"},
      {"net.link_pkts", "count"},
      {"net.queue_drops", "count"},
      {"net.impair_drops", "count"},
      {"net.link_ns_per_pkt", "ns"},
      {"net.shard_handoffs", "count"},
      {"transport.rtp_send_ns_per_frame", "ns"},
      {"transport.rtp_recv_ns_per_pkt", "ns"},
      {"transport.tcp_segments", "count"},
      {"transport.tcp_ns_per_seg", "ns"},
      {"cc.feedback_ns", "ns"},
      {"cc.remb_ns_per_pkt", "ns"},
      {"media.encode_ns_per_frame", "ns"},
      {"media.frames", "count"},
      {"vca.forwarded_pkts", "count"},
      {"vca.peak_subscriptions", "count"},
      {"vca.relay_streams", "count"},
      {"vca.churn_events", "count"},
      {"trace.records", "count"},
      {"trace.pcap_write_ns_per_rec", "ns"},
      {"trace.pcap_read_ns_per_rec", "ns"},
      {"analysis.parse_ns_per_pkt", "ns"},
      {"analysis.offline_ns_per_pkt", "ns"},
      {"analysis.frames", "count"},
      {"streaming.ns_per_pkt", "ns"},
      {"streaming.sketch_only_pkts", "count"},
      {"streaming.promoted", "count"},
      {"streaming.evicted", "count"},
      {"streaming.windows", "count"},
      {"streaming.peak_live_mb", "MB"},
      {"streaming.alloc_calls", "count"},
      {"harness.sims", "count"},
      {"harness.sim_s.two_party", "s"},
      {"harness.sim_s.disruption", "s"},
      {"harness.sim_s.competition", "s"},
      {"harness.sim_s.multiparty", "s"},
      {"harness.sim_s.conference", "s"},
      {"harness.sweep_idle_s", "s"},
  };
  MetricSheet sheet;
  for (const auto& [name, unit] : entries) sheet[name] = {0.0, unit};
  return sheet;
}

namespace {

double per(int64_t ns, int64_t n) {
  return n > 0 ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
}

// Gaps between consecutive captured packets (ns, > 0), the hold model's
// delay distribution.
std::vector<int64_t> arrival_gaps(const std::vector<PacketRecord>& recs) {
  std::vector<int64_t> gaps;
  for (size_t i = 1; i < recs.size(); ++i) {
    int64_t g = recs[i].ts_ns - recs[i - 1].ts_ns;
    if (g > 0) gaps.push_back(g);
  }
  if (gaps.empty()) gaps.push_back(1'000'000);
  return gaps;
}

struct CountingSink : PacketSink {
  int64_t packets = 0;
  void deliver(Packet) override { ++packets; }
};

// The captured primary video stream, segmented into frames.
struct RecordedFrame {
  int64_t start_ns = 0;
  int payload_bytes = 0;
};

std::vector<RecordedFrame> primary_video_frames(
    const std::vector<PacketRecord>& recs) {
  std::map<uint32_t, int64_t> bytes_by_ssrc;
  std::vector<ParsedPacket> parsed;
  parsed.reserve(recs.size());
  for (const PacketRecord& r : recs) {
    auto p = parse_frame(r);
    if (!p || !p->is_rtp) continue;
    bytes_by_ssrc[p->ssrc] += p->ip_bytes;
    parsed.push_back(*p);
  }
  if (bytes_by_ssrc.empty()) return {};
  uint32_t ssrc = std::max_element(bytes_by_ssrc.begin(), bytes_by_ssrc.end(),
                                   [](const auto& a, const auto& b) {
                                     return a.second < b.second;
                                   })
                      ->first;
  FrameSegmenter seg;
  for (const ParsedPacket& p : parsed) {
    if (p.ssrc == ssrc) seg.on_packet(p);
  }
  std::vector<RecordedFrame> frames;
  for (const FrameObservation& f : seg.finish()) {
    int overhead = f.packets * (kUdpIpHeaderBytes + kRtpHeaderBytes);
    frames.push_back(
        {f.start_ns, std::max<int>(1, static_cast<int>(f.ip_bytes) - overhead)});
  }
  return frames;
}

}  // namespace

void drive_scheduler(uint64_t depth, const std::vector<PacketRecord>& recs,
                     MetricSheet& sheet) {
  if (depth == 0) return;
  std::vector<int64_t> gaps = arrival_gaps(recs);
  EventScheduler sched;
  uint64_t remaining = std::max<uint64_t>(2'000'000, 20 * depth);
  size_t cursor = 0;
  // Each event reschedules itself: the heap stays at `depth` throughout.
  struct Hold {
    EventScheduler* sched;
    const std::vector<int64_t>* gaps;
    size_t* cursor;
    uint64_t* remaining;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      int64_t g = (*gaps)[(*cursor)++ % gaps->size()];
      sched->schedule(Duration::nanos(g), *this);
    }
  };
  Hold hold{&sched, &gaps, &cursor, &remaining};
  for (uint64_t i = 0; i < depth; ++i) {
    sched.schedule(Duration::nanos(gaps[i % gaps.size()]), hold);
  }
  int64_t t0 = now_ns();
  sched.run_all();
  int64_t t1 = now_ns();
  set_metric(sheet, "core.dispatch_ns",
             per(t1 - t0, static_cast<int64_t>(sched.events_processed())));
}

void drive_link(const std::vector<PacketRecord>& recs, const LinkShape& shape,
                uint64_t seed, MetricSheet& sheet) {
  if (recs.empty()) return;
  EventScheduler sched;
  Link::Config cfg;
  cfg.rate = shape.rate;
  cfg.propagation = shape.propagation;
  cfg.queue_bytes = shape.queue_bytes;
  cfg.random_loss = shape.loss;
  cfg.jitter_sd = shape.jitter;
  cfg.impairment_seed = seed;
  Link link(&sched, "drive", cfg);
  CountingSink sink;
  link.set_sink(&sink);
  int64_t t0 = now_ns();
  uint64_t id = 1;
  for (const PacketRecord& r : recs) {
    sched.run_until(TimePoint::from_ns(r.ts_ns));
    Packet p;
    p.id = id++;
    p.size_bytes = static_cast<int>(r.wire_bytes);
    link.deliver(std::move(p));
  }
  sched.run_all();
  int64_t t1 = now_ns();
  set_metric(sheet, "net.link_ns_per_pkt",
             per(t1 - t0, static_cast<int64_t>(recs.size())));
  set_metric(sheet, "net.queue_drops",
             static_cast<double>(link.queue_dropped_packets()));
  set_metric(sheet, "net.impair_drops",
             static_cast<double>(link.impairment_dropped_packets()));
}

void drive_rtp_cc(const std::vector<PacketRecord>& recs,
                  const std::string& profile, MetricSheet& sheet) {
  std::vector<RecordedFrame> frames = primary_video_frames(recs);
  if (frames.empty()) return;
  constexpr FlowId kMediaFlow = 10, kFeedbackFlow = 11;
  EventScheduler sched;
  Host tx_host(1, "tx"), rx_host(2, "rx");
  Link::Config lc;
  lc.rate = DataRate::gbps(1);
  lc.propagation = Duration::millis(20);
  lc.queue_bytes = 1 << 20;
  Link fwd(&sched, "fwd", lc), back(&sched, "back", lc);
  fwd.set_sink(&rx_host);
  back.set_sink(&tx_host);
  tx_host.set_uplink(&fwd);
  rx_host.set_uplink(&back);

  VcaProfile prof = vca_profile(profile);
  RtpSender::Config sc;
  sc.ssrc = 1;
  sc.flow = kMediaFlow;
  sc.dst = rx_host.id();
  sc.fec_overhead = prof.sender_fec;
  RtpSender sender(&sched, &tx_host, sc);
  RtpReceiver::Config rc;
  rc.ssrc = 1;
  rc.feedback_flow = kFeedbackFlow;
  rc.feedback_dst = tx_host.id();
  RtpReceiver receiver(&sched, &rx_host, rc);
  ReceiveSideEstimator est(ReceiveSideEstimator::preset(
      prof.viewer_preset, prof.start_rate, prof.viewer_max_estimate));
  auto cc = make_sender_cc(prof.cc_name, SenderCongestionController::Bounds{});

  int64_t send_ns = 0, recv_ns = 0, remb_ns = 0, fb_ns = 0;
  int64_t recv_pkts = 0, feedbacks = 0;
  rx_host.register_flow(kMediaFlow, [&](Packet p) {
    int64_t a = now_ns();
    receiver.handle_packet(p);
    int64_t b = now_ns();
    est.on_packet(sched.now(), p.rtp().abs_send_time, p.size_bytes);
    int64_t c = now_ns();
    recv_ns += b - a;
    remb_ns += c - b;
    ++recv_pkts;
  });
  tx_host.register_flow(kFeedbackFlow, [&](Packet p) {
    sender.handle_rtcp(p.rtcp());
    int64_t a = now_ns();
    cc->on_feedback(p.rtcp(), sched.now());
    cc->target_rate(sched.now());
    fb_ns += now_ns() - a;
    ++feedbacks;
  });

  uint64_t frame_id = 0;
  for (const RecordedFrame& f : frames) {
    sched.run_until(TimePoint::from_ns(f.start_ns));
    EncodedFrame ef;
    ef.ssrc = 1;
    ef.frame_id = frame_id;
    ef.bytes = f.payload_bytes;
    ef.keyframe = frame_id % 300 == 0;
    ef.width = 1280;
    ef.fps = 30.0;
    ef.qp = 30;
    ef.capture_time = sched.now();
    ++frame_id;
    int64_t a = now_ns();
    sender.send_frame(ef);
    send_ns += now_ns() - a;
  }
  sched.run_until(sched.now() + Duration::seconds(1));
  sender.shutdown();
  receiver.shutdown();
  sched.run_all();
  set_metric(sheet, "transport.rtp_send_ns_per_frame",
             per(send_ns, static_cast<int64_t>(frames.size())));
  set_metric(sheet, "transport.rtp_recv_ns_per_pkt", per(recv_ns, recv_pkts));
  set_metric(sheet, "cc.remb_ns_per_pkt", per(remb_ns, recv_pkts));
  set_metric(sheet, "cc.feedback_ns", per(fb_ns, feedbacks));
}

void drive_encoder(const std::string& profile, DataRate target,
                   Duration length, uint64_t seed, MetricSheet& sheet) {
  VcaProfile prof = vca_profile(profile);
  EventScheduler sched;
  AdaptiveEncoder::Config ec;
  ec.ssrc = 1;
  ec.policy = prof.policy_for_layer(0);
  AdaptiveEncoder enc(&sched, Rng(seed), ec);
  int64_t frames = 0, bytes = 0;
  enc.set_frame_handler([&](const EncodedFrame& f) {
    ++frames;
    bytes += f.bytes;
  });
  enc.set_target(target, 1280);
  enc.start();
  int64_t t0 = now_ns();
  sched.run_until(TimePoint::zero() + length);
  int64_t t1 = now_ns();
  enc.stop();
  set_metric(sheet, "media.encode_ns_per_frame", per(t1 - t0, frames));
  set_metric(sheet, "media.frames", static_cast<double>(frames));
}

void drive_tcp(DataRate rate, Duration length, MetricSheet& sheet) {
  constexpr FlowId kFlow = 20;
  EventScheduler sched;
  Host src(1, "src"), dst(2, "dst");
  Link::Config lc;
  lc.rate = rate;
  lc.propagation = Duration::millis(10);
  lc.queue_bytes = std::clamp<int64_t>(rate.bits_per_sec() * 3 / 80,
                                       20'000, 1'000'000);
  Link fwd(&sched, "fwd", lc), back(&sched, "back", lc);
  fwd.set_sink(&dst);
  back.set_sink(&src);
  src.set_uplink(&fwd);
  dst.set_uplink(&back);
  TcpSender::Config sc;
  sc.flow = kFlow;
  sc.dst = dst.id();
  sc.unlimited = true;
  TcpSender sender(&sched, &src, sc);
  TcpReceiverEndpoint receiver(&sched, &dst,
                               TcpReceiverEndpoint::Config{kFlow, src.id()});
  int64_t busy_ns = 0, segments = 0;
  dst.register_flow(kFlow, [&](Packet p) {
    int64_t a = now_ns();
    receiver.handle_packet(p);
    busy_ns += now_ns() - a;
    ++segments;
  });
  src.register_flow(kFlow, [&](Packet p) {
    int64_t a = now_ns();
    sender.handle_packet(p);
    busy_ns += now_ns() - a;
  });
  sched.run_until(TimePoint::zero() + length);
  sender.stop();
  set_metric(sheet, "transport.tcp_segments", static_cast<double>(segments));
  set_metric(sheet, "transport.tcp_ns_per_seg", per(busy_ns, segments));
}

void drive_analysis(const std::vector<PacketRecord>& recs, MetricSheet& sheet) {
  if (recs.empty()) return;
  int64_t t0 = now_ns();
  for (const PacketRecord& r : recs) (void)parse_frame(r);
  int64_t t1 = now_ns();
  TraceAnalysisBuilder builder;
  for (const PacketRecord& r : recs) builder.add(r);
  TraceAnalysis a = builder.finish();
  int64_t t2 = now_ns();
  int64_t frames = 0;
  for (const StreamReport& s : a.streams) frames += s.frames;
  int64_t n = static_cast<int64_t>(recs.size());
  set_metric(sheet, "analysis.parse_ns_per_pkt", per(t1 - t0, n));
  set_metric(sheet, "analysis.offline_ns_per_pkt", per(t2 - t1, n));
  set_metric(sheet, "analysis.frames", static_cast<double>(frames));
}

void drive_pcap_read(const std::vector<std::string>& paths,
                     MetricSheet& sheet) {
  int64_t ns = 0, n = 0;
  for (const std::string& path : paths) {
    int64_t t0 = now_ns();
    PcapFileReader reader(path);
    PacketRecord rec;
    while (reader.ok() && reader.next(&rec)) ++n;
    ns += now_ns() - t0;
  }
  set_metric(sheet, "trace.pcap_read_ns_per_rec", per(ns, n));
}

}  // namespace perfbench
