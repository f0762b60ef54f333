#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "agent/platform.hpp"
#include "agent/trace_render.hpp"
#include "obs/span.hpp"
#include "wfl/data.hpp"
#include "wfl/xml_io.hpp"

namespace ig::agent {
namespace {

/// Records everything it receives; can auto-reply.
class EchoAgent : public Agent {
 public:
  explicit EchoAgent(std::string name, bool reply = false)
      : Agent(std::move(name)), reply_(reply) {}

  void handle_message(const AclMessage& message) override {
    received.push_back(message);
    if (reply_ && message.performative == Performative::Request) {
      send(message.make_reply(Performative::Inform));
    }
  }

  std::vector<AclMessage> received;

 private:
  bool reply_;
};

TEST(Message, ParamAccess) {
  AclMessage message;
  message.params["k"] = "v";
  EXPECT_EQ(message.param("k"), "v");
  EXPECT_EQ(message.param("missing", "fb"), "fb");
  EXPECT_TRUE(message.has_param("k"));
  EXPECT_FALSE(message.has_param("missing"));
}

TEST(Message, MakeReplySwapsEndpoints) {
  AclMessage message;
  message.performative = Performative::Request;
  message.sender = "cs";
  message.receiver = "ps";
  message.conversation_id = "c1";
  message.protocol = "planning-request";
  const AclMessage reply = message.make_reply(Performative::Inform);
  EXPECT_EQ(reply.sender, "ps");
  EXPECT_EQ(reply.receiver, "cs");
  EXPECT_EQ(reply.conversation_id, "c1");
  EXPECT_EQ(reply.protocol, "planning-request");
  EXPECT_EQ(reply.performative, Performative::Inform);
}

TEST(Message, DisplayString) {
  AclMessage message;
  message.performative = Performative::Request;
  message.sender = "cs";
  message.receiver = "ps";
  message.protocol = "planning-request";
  EXPECT_EQ(message.to_display_string(), "REQUEST cs -> ps [planning-request]");
}

TEST(Platform, RegisterAndLookup) {
  grid::Simulation sim;
  AgentPlatform platform(sim);
  platform.spawn<EchoAgent>("a");
  EXPECT_TRUE(platform.has_agent("a"));
  EXPECT_NE(platform.find_agent("a"), nullptr);
  EXPECT_EQ(platform.find_agent("b"), nullptr);
  EXPECT_EQ(platform.agent_names(), (std::vector<std::string>{"a"}));
}

TEST(Platform, DuplicateNameThrows) {
  grid::Simulation sim;
  AgentPlatform platform(sim);
  platform.spawn<EchoAgent>("a");
  EXPECT_THROW(platform.spawn<EchoAgent>("a"), std::invalid_argument);
}

TEST(Platform, DeliversAfterLatency) {
  grid::Simulation sim;
  AgentPlatform platform(sim);
  auto& receiver = platform.spawn<EchoAgent>("rx");
  platform.spawn<EchoAgent>("tx");
  platform.set_latency_function([](const std::string&, const std::string&) { return 0.25; });

  AclMessage message;
  message.sender = "tx";
  message.receiver = "rx";
  platform.send(message);
  EXPECT_TRUE(receiver.received.empty());  // not yet delivered
  sim.run();
  ASSERT_EQ(receiver.received.size(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.25);
  EXPECT_EQ(platform.messages_delivered(), 1u);
}

TEST(Platform, RequestReplyConversation) {
  grid::Simulation sim;
  AgentPlatform platform(sim);
  auto& client = platform.spawn<EchoAgent>("client");
  platform.spawn<EchoAgent>("server", /*reply=*/true);

  AclMessage request;
  request.performative = Performative::Request;
  request.sender = "client";
  request.receiver = "server";
  request.conversation_id = "conv-9";
  platform.send(request);
  sim.run();
  ASSERT_EQ(client.received.size(), 1u);
  EXPECT_EQ(client.received[0].performative, Performative::Inform);
  EXPECT_EQ(client.received[0].conversation_id, "conv-9");
}

TEST(Platform, UnknownReceiverBouncesToSender) {
  grid::Simulation sim;
  AgentPlatform platform(sim);
  auto& sender = platform.spawn<EchoAgent>("tx");
  AclMessage message;
  message.performative = Performative::Request;
  message.sender = "tx";
  message.receiver = "ghost";
  message.protocol = "anything";
  platform.send(message);
  sim.run();
  ASSERT_EQ(sender.received.size(), 1u);
  EXPECT_EQ(sender.received[0].performative, Performative::Failure);
  EXPECT_EQ(sender.received[0].protocol, "platform-error");
  EXPECT_NE(sender.received[0].param("error").find("ghost"), std::string::npos);
}

TEST(Platform, FailureToUnknownDoesNotLoop) {
  grid::Simulation sim;
  AgentPlatform platform(sim);
  AclMessage message;
  message.performative = Performative::Failure;  // failures never bounce
  message.sender = "ghost-a";
  message.receiver = "ghost-b";
  platform.send(message);
  EXPECT_LT(sim.run(1000), 1000u);  // terminates
}

TEST(Platform, DeregisterDropsAgent) {
  grid::Simulation sim;
  AgentPlatform platform(sim);
  platform.spawn<EchoAgent>("a");
  EXPECT_TRUE(platform.deregister_agent("a"));
  EXPECT_FALSE(platform.deregister_agent("a"));
  EXPECT_FALSE(platform.has_agent("a"));
}

/// Always throws: models a buggy agent whose handler dies on any input.
class ThrowingAgent : public Agent {
 public:
  using Agent::Agent;
  void handle_message(const AclMessage& message) override {
    throw std::runtime_error("boom on " + std::string(to_string(message.performative)));
  }
};

TEST(Platform, ContainsThrowingHandlerAndRepliesFailure) {
  grid::Simulation sim;
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  AgentPlatform platform(sim);
  platform.set_tracer(&tracer);
  auto& sender = platform.spawn<EchoAgent>("tx");
  platform.spawn<ThrowingAgent>("bad");

  AclMessage request;
  request.performative = Performative::Request;
  request.sender = "tx";
  request.receiver = "bad";
  request.protocol = "some-protocol";
  request.conversation_id = "conv-1";
  platform.send(request);
  sim.run();

  // The exception is contained: the sender gets a Failure reply that keeps
  // the conversation, names the culprit, and carries the what() string.
  ASSERT_EQ(sender.received.size(), 1u);
  EXPECT_EQ(sender.received[0].performative, Performative::Failure);
  EXPECT_EQ(sender.received[0].conversation_id, "conv-1");
  EXPECT_EQ(sender.received[0].protocol, "some-protocol");
  EXPECT_NE(sender.received[0].param("reason").find("bad"), std::string::npos);
  EXPECT_NE(sender.received[0].param("reason").find("boom"), std::string::npos);

  // Counters attribute the failure to the throwing agent only.
  EXPECT_EQ(platform.handler_failures("bad"), 1u);
  EXPECT_EQ(platform.handler_failures("tx"), 0u);
  EXPECT_EQ(platform.handler_failures_total(), 1u);
  ASSERT_EQ(platform.handler_failures_by_agent().size(), 1u);

  // The trace annotates the poisoned delivery.
  EXPECT_NE(trace_to_string(tracer.spans()).find("HANDLER ERROR"), std::string::npos);
  bool annotated = false;
  for (const auto& span : tracer.spans())
    if (span.tag("handler_error") != nullptr) annotated = true;
  EXPECT_TRUE(annotated);
}

TEST(Platform, ThrowingOnFailureReplyDoesNotLoop) {
  // tx throws on everything too — including the containment Failure it gets
  // back. The platform must not convert that second throw into another
  // reply, or two buggy agents would ping-pong forever.
  grid::Simulation sim;
  AgentPlatform platform(sim);
  platform.spawn<ThrowingAgent>("tx");
  platform.spawn<ThrowingAgent>("bad");

  AclMessage request;
  request.performative = Performative::Request;
  request.sender = "tx";
  request.receiver = "bad";
  platform.send(request);
  EXPECT_LT(sim.run(1000), 1000u);  // terminates
  EXPECT_EQ(platform.handler_failures("bad"), 1u);
  EXPECT_EQ(platform.handler_failures("tx"), 1u);
  EXPECT_EQ(platform.handler_failures_total(), 2u);
}

TEST(Platform, ContainmentSurvivesDepartedSender) {
  // The buggy agent's correspondent may be gone by the time the throw
  // happens; the containment net must cope without a reply target.
  grid::Simulation sim;
  AgentPlatform platform(sim);
  platform.spawn<EchoAgent>("tx");
  platform.spawn<ThrowingAgent>("bad");
  AclMessage request;
  request.performative = Performative::Request;
  request.sender = "tx";
  request.receiver = "bad";
  platform.send(request);
  platform.deregister_agent("tx");
  EXPECT_LT(sim.run(1000), 1000u);
  EXPECT_EQ(platform.handler_failures_total(), 1u);
}

TEST(Platform, MessageSpanRecordsDelivery) {
  grid::Simulation sim;
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  AgentPlatform platform(sim);
  platform.set_tracer(&tracer);
  platform.spawn<EchoAgent>("rx");
  platform.spawn<EchoAgent>("tx");
  AclMessage message;
  message.performative = Performative::Inform;
  message.sender = "tx";
  message.receiver = "rx";
  message.protocol = "test-proto";
  platform.send(message);
  sim.run();
  const std::vector<obs::Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::Message);
  EXPECT_TRUE(spans[0].closed);
  EXPECT_EQ(spans[0].tag("delivered"), nullptr);
  const std::string rendered = trace_to_string(spans);
  EXPECT_NE(rendered.find("INFORM tx -> rx [test-proto]"), std::string::npos);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

/// Passes every message through except protocol "reject", like a codec
/// that cannot decode one kind of frame.
std::optional<AclMessage> reject_hook(const AclMessage& message, std::string* error) {
  if (message.protocol != "reject") return message;
  if (error != nullptr) *error = "injected reject";
  return std::nullopt;
}

TEST(Platform, MessageSpansTagEveryDeliveryOutcome) {
  grid::Simulation sim;
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  AgentPlatform platform(sim);
  platform.set_tracer(&tracer);
  platform.set_transport_hook(reject_hook);
  for (const char* name : {"tx", "rx", "lossy", "hung"}) platform.spawn<EchoAgent>(name);
  platform.spawn<ThrowingAgent>("bad");
  platform.hang_agent("hung");
  ChaosPolicy policy;
  ChaosRule drop_all;
  drop_all.match.receiver = "lossy";
  drop_all.drop = 1.0;
  policy.rules.push_back(drop_all);
  platform.set_chaos(policy);

  const auto send = [&](const std::string& receiver, const std::string& protocol,
                        const std::string& conversation) {
    AclMessage message;
    message.performative = Performative::Request;
    message.sender = "tx";
    message.receiver = receiver;
    message.protocol = protocol;
    message.conversation_id = conversation;
    message.params["k"] = "v";
    platform.send(message);
  };
  send("rx", "ok", "c-delivered");
  send("ghost", "ok", "c-bounced");
  send("lossy", "ok", "c-dropped");
  send("hung", "", "c-swallowed");
  send("rx", "reject", "c-rejected");
  send("bad", "ok", "c-threw");
  sim.run();

  const std::vector<obs::Span> spans = tracer.spans();
  ASSERT_FALSE(spans.empty());
  // The first span of a conversation is the original send (bounces and
  // Failure replies keep the conversation but come later).
  const auto first = [&spans](const std::string& conversation) -> const obs::Span& {
    for (const obs::Span& span : spans) {
      const std::string* tag = span.tag("conversation");
      if (tag != nullptr && *tag == conversation) return span;
    }
    ADD_FAILURE() << "no span for " << conversation;
    return spans.front();
  };
  const auto tag_or_none = [](const obs::Span& span, const std::string& key) {
    const std::string* value = span.tag(key);
    return value != nullptr ? *value : std::string("<none>");
  };
  for (const obs::Span& span : spans) {
    EXPECT_EQ(span.kind, obs::SpanKind::Message);
    EXPECT_TRUE(span.closed);
    EXPECT_LE(span.start, span.end);
  }

  const obs::Span& delivered = first("c-delivered");
  EXPECT_EQ(delivered.name, "ok");
  EXPECT_DOUBLE_EQ(delivered.start, 0.0);
  EXPECT_DOUBLE_EQ(delivered.end, 0.001);  // the default transport latency
  EXPECT_EQ(tag_or_none(delivered, "performative"), "REQUEST");
  EXPECT_EQ(tag_or_none(delivered, "sender"), "tx");
  EXPECT_EQ(tag_or_none(delivered, "receiver"), "rx");
  EXPECT_EQ(tag_or_none(delivered, "param.k"), "v");
  EXPECT_EQ(tag_or_none(delivered, "delivered"), "<none>");
  EXPECT_EQ(tag_or_none(delivered, "chaos"), "<none>");
  EXPECT_EQ(tag_or_none(delivered, "handler_error"), "<none>");
  const std::optional<AclMessage> decoded = message_of(delivered);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->performative, Performative::Request);
  EXPECT_EQ(decoded->protocol, "ok");
  EXPECT_EQ(decoded->conversation_id, "c-delivered");
  EXPECT_EQ(decoded->param("k"), "v");

  const obs::Span& bounced = first("c-bounced");
  EXPECT_EQ(tag_or_none(bounced, "receiver"), "ghost");
  EXPECT_EQ(tag_or_none(bounced, "delivered"), "false");
  EXPECT_EQ(tag_or_none(bounced, "chaos"), "<none>");

  const obs::Span& dropped = first("c-dropped");
  EXPECT_EQ(tag_or_none(dropped, "delivered"), "false");
  EXPECT_EQ(tag_or_none(dropped, "chaos"), "dropped");
  EXPECT_DOUBLE_EQ(dropped.end, 0.0);  // lost at send time

  const obs::Span& swallowed = first("c-swallowed");
  EXPECT_EQ(swallowed.name, "REQUEST");  // no protocol: named by performative
  EXPECT_EQ(message_of(swallowed)->protocol, "");
  EXPECT_EQ(tag_or_none(swallowed, "delivered"), "false");
  EXPECT_EQ(tag_or_none(swallowed, "chaos"), "swallowed: receiver hung");

  const obs::Span& rejected = first("c-rejected");
  EXPECT_EQ(rejected.name, "reject");
  EXPECT_EQ(tag_or_none(rejected, "delivered"), "false");
  EXPECT_EQ(tag_or_none(rejected, "chaos"), "wire: injected reject");

  const obs::Span& threw = first("c-threw");
  EXPECT_EQ(tag_or_none(threw, "delivered"), "<none>");
  EXPECT_EQ(tag_or_none(threw, "chaos"), "<none>");
  EXPECT_EQ(tag_or_none(threw, "handler_error"), "boom on REQUEST");

  // Only delivered messages are drawn (the bounce from "ghost" is one);
  // the log shows every outcome.
  const std::string arrows = render_arrows(spans);
  EXPECT_EQ(arrows.find("▶ ghost"), std::string::npos);
  EXPECT_EQ(arrows.find("▶ lossy"), std::string::npos);
  EXPECT_NE(arrows.find("▶ rx"), std::string::npos);
  const std::string log = trace_to_string(spans);
  EXPECT_NE(log.find("(UNDELIVERABLE)"), std::string::npos);
  EXPECT_NE(log.find("(CHAOS: dropped)"), std::string::npos);
  EXPECT_NE(log.find("(HANDLER ERROR: boom on REQUEST)"), std::string::npos);
}

TEST(Platform, DetachedOrDisabledTracerRecordsNothing) {
  grid::Simulation sim;
  obs::SpanTracer tracer;  // attached but never enabled
  AgentPlatform platform(sim);
  platform.spawn<EchoAgent>("rx");
  platform.spawn<EchoAgent>("tx");
  AclMessage message;
  message.sender = "tx";
  message.receiver = "rx";
  platform.send(message);  // no tracer attached yet
  sim.run();
  platform.set_tracer(&tracer);
  platform.send(message);
  sim.run();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(platform.messages_delivered(), 2u);
}

TEST(Platform, MessageSpanTagsLongParamsBySizeOnly) {
  AclMessage message;
  message.protocol = "enact-case";
  message.params["short"] = std::string(256, 'x');
  message.params["case-xml"] = std::string(4096, 'x');
  const obs::Span span = message_span(message, 0.0, 0.001, true, "");
  ASSERT_NE(span.tag("param.short"), nullptr);
  EXPECT_EQ(*span.tag("param.short"), std::string(256, 'x'));
  ASSERT_NE(span.tag("param.case-xml"), nullptr);
  EXPECT_EQ(*span.tag("param.case-xml"), "<4096 bytes>");
}

TEST(Platform, TypedDataTravelsUnrenderedWithoutAHook) {
  grid::Simulation sim;
  AgentPlatform platform(sim);
  auto& rx = platform.spawn<EchoAgent>("rx");
  platform.spawn<EchoAgent>("tx");
  AclMessage message;
  message.sender = "tx";
  message.receiver = "rx";
  message.data = std::make_shared<const wfl::DataSet>(
      std::vector<wfl::DataSpec>{wfl::DataSpec("D1").with("Value", meta::Value(0.1))});
  platform.send(message);
  sim.run();
  ASSERT_EQ(rx.received.size(), 1u);
  EXPECT_EQ(rx.received[0].data, message.data);  // the same shared set, no copy
  EXPECT_TRUE(rx.received[0].content.empty());
}

TEST(Platform, TransportHookSeesTypedDataRenderedAsXml) {
  grid::Simulation sim;
  AgentPlatform platform(sim);
  std::vector<AclMessage> carried;
  platform.set_transport_hook([&carried](const AclMessage& message, std::string*) {
    carried.push_back(message);
    return std::optional<AclMessage>(message);
  });
  auto& rx = platform.spawn<EchoAgent>("rx");
  platform.spawn<EchoAgent>("tx");
  AclMessage message;
  message.sender = "tx";
  message.receiver = "rx";
  message.data = std::make_shared<const wfl::DataSet>(
      std::vector<wfl::DataSpec>{wfl::DataSpec("D1").with("Value", meta::Value(0.1))});
  platform.send(message);
  AclMessage preset = message;
  preset.content = "<dataset/>";  // content already set: left as it is
  platform.send(preset);
  sim.run();
  ASSERT_EQ(carried.size(), 2u);
  EXPECT_EQ(carried[0].content, wfl::dataset_to_xml_string(*message.data));
  EXPECT_EQ(carried[0].data, message.data);
  EXPECT_EQ(carried[1].content, "<dataset/>");
  ASSERT_EQ(rx.received.size(), 2u);
  EXPECT_EQ(rx.received[0].data, message.data);
}

TEST(Platform, AgentSchedulesTimers) {
  class TimerAgent : public Agent {
   public:
    using Agent::Agent;
    void on_start() override {
      schedule(2.0, [this] { fired_at = now(); });
    }
    void handle_message(const AclMessage&) override {}
    grid::SimTime fired_at = -1;
  };
  grid::Simulation sim;
  AgentPlatform platform(sim);
  auto& timer = platform.spawn<TimerAgent>("t");
  sim.run();
  EXPECT_DOUBLE_EQ(timer.fired_at, 2.0);
}

TEST(TraceRender, ArrowListingFiltersByProtocol) {
  grid::Simulation sim;
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  AgentPlatform platform(sim);
  platform.set_tracer(&tracer);
  platform.spawn<EchoAgent>("a");
  platform.spawn<EchoAgent>("b");
  for (const char* protocol : {"keep", "drop", "keep"}) {
    AclMessage message;
    message.performative = Performative::Inform;
    message.sender = "a";
    message.receiver = "b";
    message.protocol = protocol;
    platform.send(message);
  }
  sim.run();
  const std::string arrows = render_arrows(tracer.spans(), {"keep"});
  EXPECT_EQ(std::count(arrows.begin(), arrows.end(), '\n'), 2);
  EXPECT_EQ(arrows.find("drop"), std::string::npos);
}

TEST(TraceRender, SequenceDiagramHasParticipantsAndArrows) {
  grid::Simulation sim;
  obs::SpanTracer tracer;
  tracer.set_enabled(true);
  AgentPlatform platform(sim);
  platform.set_tracer(&tracer);
  platform.spawn<EchoAgent>("cs");
  platform.spawn<EchoAgent>("ps");
  AclMessage message;
  message.performative = Performative::Request;
  message.sender = "cs";
  message.receiver = "ps";
  message.protocol = "planning-request";
  platform.send(message);
  sim.run();
  const std::string diagram = render_sequence_diagram(tracer.spans());
  EXPECT_NE(diagram.find("cs"), std::string::npos);
  EXPECT_NE(diagram.find("ps"), std::string::npos);
  EXPECT_NE(diagram.find(">"), std::string::npos);
  EXPECT_NE(diagram.find("planning-req"), std::string::npos);
}

TEST(TraceRender, EmptySelectionSaysSo) {
  const std::string diagram = render_sequence_diagram({});
  EXPECT_NE(diagram.find("no matching messages"), std::string::npos);
}

TEST(Agent, SendWithoutPlatformThrows) {
  EchoAgent orphan("alone");
  AclMessage message;
  EXPECT_THROW(
      {
        // Accessing the platform without registration is a logic error.
        orphan.handle_message(message);  // fine
        // send() is protected; exercise through a derived helper:
        struct Probe : EchoAgent {
          using EchoAgent::EchoAgent;
          void poke() { send(AclMessage{}); }
        };
        Probe probe("p");
        probe.poke();
      },
      std::logic_error);
}

}  // namespace
}  // namespace ig::agent
