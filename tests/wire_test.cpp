// Binary ACL wire codec: framing, interning, zero-copy decode, the
// loopback channel, and the platform transport hook.
//
// The contract under test: encode -> decode -> materialize round-trips
// every AclMessage bitwise (arbitrary binary content included — the very
// bytes the XML path must reject), interning shrinks repeat frames without
// ever desyncing across duplicated definitions, and a platform with the
// wire hook installed behaves exactly like one without it, chaos replay
// included.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "agent/platform.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "services/environment.hpp"
#include "wire/acl_xml.hpp"
#include "wire/channel.hpp"
#include "wire/codec.hpp"
#include "xml/xml.hpp"

namespace ig::wire {
namespace {

using agent::AclMessage;
using agent::Performative;

AclMessage make_message(const std::string& conversation = "c-1") {
  AclMessage message;
  message.performative = Performative::Request;
  message.sender = "coordination";
  message.receiver = "ac-3";
  message.conversation_id = conversation;
  message.protocol = "enactment-request";
  message.ontology = "grid-standard";
  message.content = "<activity name='mc-gen'/>";
  message.params["activity"] = "mc-gen";
  message.params["deadline"] = "12.5";
  return message;
}

bool same_message(const AclMessage& a, const AclMessage& b) {
  return std::tie(a.performative, a.sender, a.receiver, a.conversation_id, a.protocol,
                  a.ontology, a.content, a.params) ==
         std::tie(b.performative, b.sender, b.receiver, b.conversation_id, b.protocol,
                  b.ontology, b.content, b.params);
}

/// Encode one message and decode it back with fresh codec state.
AclMessage round_trip_once(const AclMessage& message) {
  Encoder encoder;
  Decoder decoder;
  const std::string frame = encoder.encode(message);
  std::string_view payload;
  std::size_t frame_size = 0;
  std::string error;
  EXPECT_EQ(peek_frame(frame, payload, frame_size, &error), FrameStatus::kFrame) << error;
  EXPECT_EQ(frame_size, frame.size());
  WireMessageView view;
  EXPECT_TRUE(decoder.decode_payload(payload, view, &error)) << error;
  return view.materialize();
}

// ---------------------------------------------------------------------------
// codec round trips
// ---------------------------------------------------------------------------

TEST(WireCodec, RoundTripsEveryField) {
  const AclMessage original = make_message();
  const AclMessage decoded = round_trip_once(original);
  EXPECT_TRUE(same_message(original, decoded));
}

TEST(WireCodec, RoundTripsEveryPerformative) {
  const Performative all[] = {
      Performative::Request,        Performative::Inform,
      Performative::Agree,          Performative::Refuse,
      Performative::Failure,        Performative::QueryRef,
      Performative::QueryIf,        Performative::Propose,
      Performative::AcceptProposal, Performative::RejectProposal,
      Performative::Subscribe,      Performative::Cancel,
      Performative::NotUnderstood,
  };
  for (const Performative performative : all) {
    AclMessage message = make_message();
    message.performative = performative;
    EXPECT_EQ(round_trip_once(message).performative, performative)
        << agent::to_string(performative);
  }
}

TEST(WireCodec, RoundTripsArbitraryBinaryContent) {
  // Every byte value, twice over, including embedded NULs — the payload the
  // XML path cannot carry (satellite: XML rejects, binary round-trips).
  std::string blob;
  for (int pass = 0; pass < 2; ++pass)
    for (int byte = 0; byte < 256; ++byte) blob.push_back(static_cast<char>(byte));
  AclMessage message = make_message();
  message.content = blob;
  message.params[std::string("k\0ey", 4)] = std::string("\x00\x01\x02", 3);
  const AclMessage decoded = round_trip_once(message);
  EXPECT_TRUE(same_message(message, decoded));
  EXPECT_EQ(decoded.content.size(), 512u);
}

TEST(WireCodec, RoundTripsEmptyFields) {
  AclMessage message;  // all strings empty, no params
  EXPECT_TRUE(same_message(message, round_trip_once(message)));
}

TEST(WireCodec, VarintRoundTripsBoundaries) {
  const std::uint64_t values[] = {0,   1,   127,        128,
                                  129, 300, 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFFULL};
  for (const std::uint64_t value : values) {
    std::string bytes;
    put_varint(bytes, value);
    store::Reader reader(bytes);
    const auto decoded = read_varint(reader);
    ASSERT_TRUE(decoded.has_value()) << value;
    EXPECT_EQ(*decoded, value);
    EXPECT_TRUE(reader.done());
  }
}

// ---------------------------------------------------------------------------
// interning
// ---------------------------------------------------------------------------

TEST(WireIntern, RepeatFramesShrinkAndHitTheTable) {
  Encoder encoder;
  Decoder decoder;
  const std::string first = encoder.encode(make_message("c-1"));
  const std::string second = encoder.encode(make_message("c-2"));
  // Same vocabulary (performative, protocol, ontology, 2 param names): the
  // second frame references ids instead of re-spelling the strings.
  EXPECT_LT(second.size(), first.size());
  EXPECT_EQ(encoder.stats().intern_misses, 5u);
  EXPECT_EQ(encoder.stats().intern_hits, 5u);
  EXPECT_EQ(encoder.intern_size(), 5u);

  for (const std::string& frame : {first, second}) {
    std::string_view payload;
    std::size_t frame_size = 0;
    std::string error;
    ASSERT_EQ(peek_frame(frame, payload, frame_size, &error), FrameStatus::kFrame) << error;
    WireMessageView view;
    ASSERT_TRUE(decoder.decode_payload(payload, view, &error)) << error;
    EXPECT_EQ(view.protocol, "enactment-request");
  }
  EXPECT_EQ(decoder.intern_size(), 5u);
}

TEST(WireIntern, DuplicatedDefinitionFrameReplaysCleanly) {
  // A chaos-duplicated first frame re-sends definitions the decoder already
  // holds; explicit ids make that idempotent rather than a desync.
  Encoder encoder;
  Decoder decoder;
  const std::string frame = encoder.encode(make_message());
  std::string_view payload;
  std::size_t frame_size = 0;
  ASSERT_EQ(peek_frame(frame, payload, frame_size, nullptr), FrameStatus::kFrame);
  for (int replay = 0; replay < 3; ++replay) {
    WireMessageView view;
    std::string error;
    ASSERT_TRUE(decoder.decode_payload(payload, view, &error)) << error;
    EXPECT_TRUE(same_message(make_message(), view.materialize()));
  }
  EXPECT_EQ(decoder.intern_size(), 5u);
}

TEST(WireIntern, ReferenceToUnknownIdIsACleanDecodeError) {
  // Frame 2 references ids defined by frame 1; a decoder that never saw
  // frame 1 (dropped definition) must error, not read out of bounds.
  Encoder encoder;
  encoder.encode(make_message("c-1"));
  const std::string second = encoder.encode(make_message("c-2"));
  std::string_view payload;
  std::size_t frame_size = 0;
  ASSERT_EQ(peek_frame(second, payload, frame_size, nullptr), FrameStatus::kFrame);
  Decoder fresh;
  WireMessageView view;
  std::string error;
  EXPECT_FALSE(fresh.decode_payload(payload, view, &error));
  EXPECT_NE(error.find("intern"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------------

TEST(WireFrame, NeedMoreOnEveryPartialPrefix) {
  Encoder encoder;
  const std::string frame = encoder.encode(make_message());
  for (std::size_t length = 0; length < frame.size(); ++length) {
    std::string_view payload;
    std::size_t frame_size = 0;
    EXPECT_EQ(peek_frame(frame.substr(0, length), payload, frame_size, nullptr),
              FrameStatus::kNeedMore)
        << "prefix length " << length;
  }
}

TEST(WireFrame, CrcMismatchIsBad) {
  Encoder encoder;
  std::string frame = encoder.encode(make_message());
  frame[kFrameHeaderBytes] ^= 0x01;  // first payload byte
  std::string_view payload;
  std::size_t frame_size = 0;
  std::string error;
  EXPECT_EQ(peek_frame(frame, payload, frame_size, &error), FrameStatus::kBad);
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(WireFrame, OversizedLengthPrefixIsBadNotAnAllocation) {
  std::string bogus(kFrameHeaderBytes, '\0');
  bogus[0] = '\xFF';
  bogus[1] = '\xFF';
  bogus[2] = '\xFF';
  bogus[3] = '\xFF';  // length = 0xFFFFFFFF
  std::string_view payload;
  std::size_t frame_size = 0;
  std::string error;
  EXPECT_EQ(peek_frame(bogus, payload, frame_size, &error), FrameStatus::kBad);
  EXPECT_NE(error.find("length"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// channel
// ---------------------------------------------------------------------------

TEST(WireChannel, DrainReturnsMessagesInSendOrder) {
  FramedChannel channel;
  channel.a().send(make_message("c-1"));
  channel.a().send(make_message("c-2"));
  const std::vector<AclMessage> received = channel.b().drain();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].conversation_id, "c-1");
  EXPECT_EQ(received[1].conversation_id, "c-2");
  EXPECT_EQ(channel.b().incoming().pending_bytes(), 0u);
}

TEST(WireChannel, ByteAtATimeFeedStillDeliversWholeFrames) {
  // The stream must tolerate arbitrary fragmentation, like a real socket.
  Encoder encoder;
  std::string bytes;
  encoder.encode(make_message("c-1"), bytes);
  encoder.encode(make_message("c-2"), bytes);

  Stream stream;
  std::size_t delivered = 0;
  for (const char byte : bytes) {
    stream.feed_bytes(std::string_view(&byte, 1));
    delivered += stream.receive([](const WireMessageView&) {});
  }
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(stream.pending_bytes(), 0u);
  EXPECT_EQ(stream.decode_errors(), 0u);
}

TEST(WireChannel, CorruptFramePoisonsTheRestOfTheStream) {
  Encoder encoder;
  std::string bytes;
  encoder.encode(make_message("c-1"), bytes);
  const std::size_t first_end = bytes.size();
  encoder.encode(make_message("c-2"), bytes);
  bytes[first_end + kFrameHeaderBytes] ^= 0x40;  // corrupt the second payload

  Stream stream;
  stream.feed_bytes(bytes);
  const std::size_t delivered = stream.receive([](const WireMessageView&) {});
  EXPECT_EQ(delivered, 1u);  // the first frame still lands
  EXPECT_EQ(stream.decode_errors(), 1u);
  EXPECT_EQ(stream.pending_bytes(), 0u);  // poisoned bytes discarded
  EXPECT_FALSE(stream.last_error().empty());
}

// ---------------------------------------------------------------------------
// platform hook
// ---------------------------------------------------------------------------

/// Records everything it receives.
class Recorder : public agent::Agent {
 public:
  using Agent::Agent;
  void handle_message(const AclMessage& message) override { received.push_back(message); }
  std::vector<AclMessage> received;
};

TEST(WireHook, MessagesCrossTheCodecUnchanged) {
  grid::Simulation sim;
  agent::AgentPlatform platform(sim);
  WireLink link;
  platform.set_transport_hook(make_transport_hook(link));
  platform.spawn<Recorder>("a");
  auto& b = platform.spawn<Recorder>("b");

  AclMessage message = make_message();
  message.sender = "a";
  message.receiver = "b";
  message.content = std::string("\x00\x01\x02 binary ok", 13);
  platform.send(message);
  sim.run();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(same_message(message, b.received[0]));
  EXPECT_EQ(link.stats().frames, 1u);
  EXPECT_GT(link.stats().bytes, kFrameHeaderBytes);
  EXPECT_EQ(link.stats().decode_errors, 0u);
  EXPECT_EQ(platform.transport_rejects(), 0u);
}

TEST(WireHook, RejectedMessageIsCountedAndTraced) {
  grid::Simulation sim;
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  agent::AgentPlatform platform(sim);
  platform.set_tracer(&tracer);
  platform.set_transport_hook([](const AclMessage&, std::string* error) {
    if (error != nullptr) *error = "injected reject";
    return std::optional<AclMessage>();
  });
  platform.spawn<Recorder>("a");
  auto& b = platform.spawn<Recorder>("b");

  AclMessage message = make_message();
  message.sender = "a";
  message.receiver = "b";
  platform.send(message);
  sim.run();

  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(platform.transport_rejects(), 1u);
  bool annotated = false;
  for (const auto& span : tracer.spans()) {
    const std::string* note = span.tag("chaos");
    if (note != nullptr && note->find("injected reject") != std::string::npos) annotated = true;
  }
  EXPECT_TRUE(annotated);
}

TEST(WireHook, ChaosReplayIsBitwiseIdenticalWithTheWireOn) {
  // Chaos draws its stream off the send sequence and the wire round trip is
  // bitwise, so the same seed must produce the same fault counts, the
  // same delivered messages and the same message spans whether frames
  // cross the codec or not.
  const auto run_once = [](bool wire) {
    grid::Simulation sim;
    obs::SpanTracer tracer;
    tracer.set_enabled(true);
    agent::AgentPlatform platform(sim);
    platform.set_tracer(&tracer);
    WireLink link;
    if (wire) platform.set_transport_hook(make_transport_hook(link));
    platform.spawn<Recorder>("a");
    auto& b = platform.spawn<Recorder>("b");
    agent::ChaosPolicy policy;
    policy.seed = 2004;
    agent::ChaosRule rule;
    rule.match.receiver = "b";
    rule.drop = 0.3;
    rule.delay = 0.2;
    rule.duplicate = 0.2;
    policy.rules.push_back(rule);
    platform.set_chaos(policy);
    for (int i = 0; i < 200; ++i) {
      AclMessage message = make_message("c-" + std::to_string(i));
      message.sender = "a";
      message.receiver = "b";
      platform.send(message);
    }
    sim.run();
    std::string transcript;
    for (const auto& record : b.received) transcript += record.conversation_id + "\n";
    return std::make_tuple(platform.chaos_stats(), transcript, tracer.spans());
  };

  const auto [bare_stats, bare_transcript, bare_spans] = run_once(false);
  const auto [wire_stats, wire_transcript, wire_spans] = run_once(true);
  EXPECT_EQ(bare_stats.dropped, wire_stats.dropped);
  EXPECT_EQ(bare_stats.delayed, wire_stats.delayed);
  EXPECT_EQ(bare_stats.duplicated, wire_stats.duplicated);
  EXPECT_EQ(bare_transcript, wire_transcript);
  EXPECT_GT(bare_stats.dropped, 0u);
  EXPECT_FALSE(bare_spans.empty());
  EXPECT_TRUE(bare_spans == wire_spans);
}

// ---------------------------------------------------------------------------
// environment integration
// ---------------------------------------------------------------------------

TEST(WireEnvironment, BootstrapTrafficCrossesTheWireAndPublishesCounters) {
  svc::EnvironmentOptions options;
  options.wire_transport = true;
  options.topology.domains = 2;
  options.topology.nodes_per_domain = 2;
  auto environment = svc::make_environment(options);

  ASSERT_NE(environment->wire_link(), nullptr);
  const LinkStats stats = environment->wire_link()->stats();
  EXPECT_GT(stats.frames, 0u);  // registrations crossed the codec
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_GT(stats.intern_hits, 0u);  // vocabulary repeated across frames

  obs::MetricsRegistry& registry = environment->registry();
  EXPECT_EQ(registry.counter("wire_frames_total").value(), stats.frames);
  EXPECT_EQ(registry.counter("platform_transport_rejects_total").value(), 0u);
}

// ---------------------------------------------------------------------------
// XML path: reject-with-reason vs binary round trip (the bugfix)
// ---------------------------------------------------------------------------

TEST(WireAclXml, RoundTripsCleanMessages) {
  const AclMessage original = make_message();
  const AclMessage decoded = acl_from_xml(acl_to_xml(original));
  EXPECT_TRUE(same_message(original, decoded));
}

TEST(WireAclXml, RejectsControlCharactersWithFieldAndOffset) {
  AclMessage message = make_message();
  message.params["payload"] = std::string("ab\x01z", 4);
  try {
    acl_to_xml(message);
    FAIL() << "control character silently accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("payload"), std::string::npos) << what;
    EXPECT_NE(what.find("0x01"), std::string::npos) << what;
    EXPECT_NE(what.find("offset 2"), std::string::npos) << what;
  }
  // The binary codec carries the same message bitwise.
  EXPECT_TRUE(same_message(message, round_trip_once(message)));
}

TEST(WireAclXml, KeepsXmlWhitespaceControls) {
  AclMessage message = make_message();
  message.content = "line one\n\tline two\r\n";
  EXPECT_TRUE(same_message(message, acl_from_xml(acl_to_xml(message))));
}

}  // namespace
}  // namespace ig::wire
