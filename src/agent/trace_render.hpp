// Platform message spans and their renderings.
//
// The platform records each message as one closed SpanKind::Message span:
// start is the send time, end the delivery or loss time, and name the
// protocol (the performative when the protocol is empty). Its tags are
// performative, sender, receiver, conversation and one `param.<key>` per
// param (a value over 256 bytes is recorded as "<N bytes>"), plus — only
// when they apply — delivered=false, chaos=<note> and handler_error=<what>.
// The figure benches and the replanning demo render these spans as a
// message log or as the lifeline diagrams the paper's Figures 2 and 3 draw
// by hand:
//
//   t=0.0010        cs ──planning-request──────────▶ ps
//   t=0.5012        ps ──planning-request──────────▶ cs   (INFORM)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "agent/message.hpp"
#include "obs/span.hpp"

namespace ig::agent {

/// The span for `message`, for obs::SpanTracer::record (which closes and
/// numbers it); `delivered` false and a non-empty `chaos` add their tags.
obs::Span message_span(const AclMessage& message, double sent_at, double at, bool delivered,
                       std::string chaos);

/// The message a Message span records (content and ontology are not
/// traced); nullopt for any other kind of span.
std::optional<AclMessage> message_of(const obs::Span& span);

/// "t=0.001  REQUEST cs -> ps [planning-request]" per message span, with
/// (UNDELIVERABLE), (HANDLER ERROR: ...) and (CHAOS: ...) annotations.
std::string trace_to_string(const std::vector<obs::Span>& spans);

/// Renders an arrow-per-message listing of the delivered messages whose
/// protocol is in `protocols` (empty: all).
std::string render_arrows(const std::vector<obs::Span>& spans,
                          const std::vector<std::string>& protocols = {});

/// The same messages as a lifeline diagram: a column per participating
/// agent, a row per message, arrows spanning sender to receiver.
std::string render_sequence_diagram(const std::vector<obs::Span>& spans,
                                    const std::vector<std::string>& protocols = {});

}  // namespace ig::agent
