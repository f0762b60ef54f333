// Binary ACL wire codec: framing, interning, zero-copy decode, the
// loopback channel, and the platform transport hook.
//
// The contract under test: encode -> decode -> materialize round-trips
// every AclMessage bitwise (arbitrary binary content included — the very
// bytes the XML path must reject), interning shrinks repeat frames without
// ever desyncing across duplicated definitions, and a platform with the
// wire hook installed behaves exactly like one without it, chaos replay
// included. That last part covers typed data-set payloads too: a case whose
// data travels typed inside its stack ends bitwise-identical to the same
// case with every message forced through the codec as XML.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "agent/platform.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "planner/convert.hpp"
#include "planner/workload.hpp"
#include "services/environment.hpp"
#include "services/protocol.hpp"
#include "virolab/catalogue.hpp"
#include "virolab/workflow.hpp"
#include "wfl/xml_io.hpp"
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

// ---------------------------------------------------------------------------
// typed data-set payloads against the XML the wire forces
// ---------------------------------------------------------------------------

/// A case to enact, with the catalogue and topology it runs on.
struct DiffCase {
  std::string label;
  wfl::ProcessDescription process;
  wfl::CaseDescription case_description;
  svc::EnvironmentOptions options;
};

DiffCase fig10_case(double target) {
  return {"fig10 target " + std::to_string(target), virolab::make_fig10_process(target),
          virolab::make_case_description(target), {}};
}

/// A 60-stage McRunjob-style chain over the layered problem's services
/// (the perfbench `chain_long` shape): a long case whose data set grows by
/// one item per stage.
DiffCase chain_case() {
  planner::WorkloadParams params;
  params.depth = 60;
  params.services_per_layer = 1;
  const planner::PlanningProblem problem = planner::make_layered_problem(params);
  std::vector<planner::PlanNode> stages;
  for (int layer = 1; layer <= params.depth; ++layer)
    stages.push_back(planner::PlanNode::terminal("Stage" + std::to_string(layer)));
  DiffCase out{"chain-60",
               planner::to_process(planner::PlanNode::sequential(std::move(stages)), "chain-60"),
               wfl::CaseDescription("chain-60"),
               {}};
  out.case_description.set_id("chain-60");
  out.case_description.set_process_name("chain-60");
  out.case_description.initial_data() = problem.initial_state;
  for (const wfl::GoalSpec& goal : problem.goals) out.case_description.add_goal(goal);
  out.options.catalogue = problem.catalogue;
  out.options.use_synthetic_kernels = false;
  out.options.topology.domains = 1;
  out.options.topology.nodes_per_domain = 12;
  return out;
}

std::vector<DiffCase> diff_cases() {
  std::vector<DiffCase> cases;
  // 11.7 is the first refinement pass's exact result: the loop's exit test
  // sees the value the codec hands back, so any rounding shows here.
  for (const double target : {7.5, 8.0, 9.3, 11.0, 11.7, 12.0}) cases.push_back(fig10_case(target));
  cases.push_back(chain_case());
  return cases;
}

void reliable_nodes(svc::Environment& environment) {
  for (const auto& node : environment.grid().nodes()) node->set_reliability(1.0);
}

/// Enacts one case on a fresh stack and returns its case-completed reply.
AclMessage enact_once(const DiffCase& diff_case, bool wire) {
  svc::EnvironmentOptions options = diff_case.options;
  options.wire_transport = wire;
  auto environment = svc::make_environment(options);
  reliable_nodes(*environment);
  auto& client = environment->platform().spawn<Recorder>("ui");
  AclMessage request;
  request.performative = Performative::Request;
  request.sender = "ui";
  request.receiver = svc::names::kCoordination;
  request.protocol = svc::protocols::kEnactCase;
  request.content = wfl::process_to_xml_string(diff_case.process);
  request.params["case-xml"] = wfl::case_to_xml_string(diff_case.case_description);
  environment->platform().send(request);
  environment->run();
  for (const AclMessage& message : client.received)
    if (message.protocol == svc::protocols::kCaseCompleted) return message;
  ADD_FAILURE() << diff_case.label << ": no case-completed reply";
  return {};
}

TEST(WirePayloads, TypedAndWireForcedCasesEndBitwiseIdentical) {
  for (const DiffCase& diff_case : diff_cases()) {
    SCOPED_TRACE(diff_case.label);
    const AclMessage typed = enact_once(diff_case, false);
    const AclMessage wired = enact_once(diff_case, true);
    // The two runs really took different paths: typed data on one, decoded
    // XML on the other.
    EXPECT_NE(typed.data, nullptr);
    EXPECT_EQ(wired.data, nullptr);
    EXPECT_FALSE(wired.content.empty());

    EXPECT_EQ(typed.param("success"), "true");
    EXPECT_EQ(typed.params, wired.params);
    const auto typed_data = svc::dataset_payload(typed);
    const auto wired_data = svc::dataset_payload(wired);
    EXPECT_FALSE(typed_data->empty());
    EXPECT_TRUE(*typed_data == *wired_data);
    // The codec writes each number's shortest exact form, so equal text
    // means bitwise-equal values.
    EXPECT_EQ(wfl::dataset_to_xml_string(*typed_data), wfl::dataset_to_xml_string(*wired_data));
  }
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Runs `cases` on an in-memory 3-shard engine and returns their outcomes
/// in submission order.
std::vector<engine::CaseOutcome> engine_outcomes(const std::vector<DiffCase>& cases, bool wire) {
  engine::EngineConfig config;
  config.shards = 3;
  config.queue_capacity = cases.size() + 4;
  config.environment = cases.front().options;
  config.environment.wire_transport = wire;
  config.shard_setup = [](svc::Environment& environment, std::size_t) {
    reliable_nodes(environment);
  };
  engine::EnactmentEngine engine(config);
  std::vector<engine::CaseId> ids;
  for (const DiffCase& diff_case : cases)
    ids.push_back(engine.submit(diff_case.process, diff_case.case_description));
  engine.drain();
  std::vector<engine::CaseOutcome> outcomes;
  for (const engine::CaseId id : ids) {
    const auto outcome = engine.result(id);
    EXPECT_TRUE(outcome.has_value()) << "case " << id << " not terminal";
    outcomes.push_back(outcome.value_or(engine::CaseOutcome{}));
  }
  return outcomes;
}

TEST(WirePayloads, EngineOutcomesMatchWithTheWireOnAndOff) {
  std::vector<DiffCase> fig10 = diff_cases();
  const std::vector<DiffCase> chain{fig10.back()};
  fig10.pop_back();
  for (const std::vector<DiffCase>& cases : {fig10, chain}) {
    const auto typed = engine_outcomes(cases, false);
    const auto wired = engine_outcomes(cases, true);
    ASSERT_EQ(typed.size(), wired.size());
    for (std::size_t i = 0; i < typed.size(); ++i) {
      SCOPED_TRACE(cases[i].label);
      const engine::CaseOutcome& a = typed[i];
      const engine::CaseOutcome& b = wired[i];
      EXPECT_EQ(a.state, engine::CaseState::Completed) << a.error;
      // Every field but the host's: wall-clock latency, the shard that ran
      // the final attempt and the completion order depend on thread timing.
      EXPECT_EQ(a.state, b.state);
      EXPECT_EQ(a.error, b.error);
      EXPECT_EQ(bits(a.makespan), bits(b.makespan));
      EXPECT_EQ(a.activities_executed, b.activities_executed);
      EXPECT_EQ(a.activities_replayed, b.activities_replayed);
      EXPECT_EQ(a.dispatch_failures, b.dispatch_failures);
      EXPECT_EQ(a.replans, b.replans);
      EXPECT_EQ(a.engine_retries, b.engine_retries);
      EXPECT_EQ(bits(a.goal_satisfaction), bits(b.goal_satisfaction));
      EXPECT_EQ(bits(a.total_cost), bits(b.total_cost));
    }
  }
}

}  // namespace
}  // namespace ig::wire
