// Direct drives of the layers that only run inside the event loop (traced
// run only). Spans around the benchmark's public calls cannot see link
// serialization, RTP, congestion control or the encoder, so each drive
// builds the module on its own public API, feeds it inputs recorded from
// the workload's own run (captured packet sizes and times, link rates
// and impairments, frame sizes, event-heap depth) and times every call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/time.h"
#include "core/units.h"
#include "trace/pcap.h"

namespace perfbench {

// A link as a workload configured it.
struct LinkShape {
  vca::DataRate rate = vca::DataRate::gbps(1);
  vca::Duration propagation = vca::Duration::millis(2);
  int64_t queue_bytes = 150 * 1024;
  double loss = 0.0;
  vca::Duration jitter = vca::Duration::zero();
};

// core.dispatch_ns: a hold model at the workload's recorded heap depth;
// every event reschedules itself after a gap taken from the captured
// packet inter-arrival times.
void drive_scheduler(uint64_t depth, const std::vector<vca::PacketRecord>& recs,
                     MetricSheet& sheet);

// net.link_ns_per_pkt, net.queue_drops, net.impair_drops: the captured
// packets offered, at their capture times, to a standalone Link shaped
// like the one they were captured on.
void drive_link(const std::vector<vca::PacketRecord>& recs,
                const LinkShape& shape, uint64_t seed, MetricSheet& sheet);

// transport.rtp_*, cc.*: the captured primary video's frames (sizes and
// times from the trace) through RtpSender -> link -> RtpReceiver, with the
// receive-side estimator fed every arrival and the sender controller of
// `profile` fed every RTCP report.
void drive_rtp_cc(const std::vector<vca::PacketRecord>& recs,
                  const std::string& profile, MetricSheet& sheet);

// media.encode_ns_per_frame, media.frames: the profile's base-layer
// encoder at the recorded target rate for `length` of simulated time.
void drive_encoder(const std::string& profile, vca::DataRate target,
                   vca::Duration length, uint64_t seed, MetricSheet& sheet);

// transport.tcp_segments, transport.tcp_ns_per_seg: one unlimited TCP
// sender over a link of the recorded bottleneck rate for `length`.
void drive_tcp(vca::DataRate rate, vca::Duration length, MetricSheet& sheet);

// analysis.parse_ns_per_pkt, analysis.offline_ns_per_pkt, analysis.frames.
void drive_analysis(const std::vector<vca::PacketRecord>& recs,
                    MetricSheet& sheet);

// trace.pcap_read_ns_per_rec: the chunked reader over the given files.
void drive_pcap_read(const std::vector<std::string>& paths,
                     MetricSheet& sheet);

}  // namespace perfbench
