#include "agent/trace_render.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

#include "util/strings.hpp"

namespace ig::agent {

namespace {

constexpr std::string_view kParamPrefix = "param.";
constexpr std::size_t kMaxLabelWidth = 28;
/// Longer param values (whole XML documents such as `case-xml`) are traced
/// by size only.
constexpr std::size_t kMaxTracedParam = 256;

/// The delivered messages whose protocol is listed (empty: all), with their
/// delivery times.
std::vector<std::pair<double, AclMessage>> selected(const std::vector<obs::Span>& spans,
                                                    const std::vector<std::string>& protocols) {
  std::vector<std::pair<double, AclMessage>> rows;
  for (const obs::Span& span : spans) {
    std::optional<AclMessage> message = message_of(span);
    if (!message || span.tag("delivered") != nullptr) continue;
    if (!protocols.empty() &&
        std::find(protocols.begin(), protocols.end(), message->protocol) == protocols.end())
      continue;
    rows.emplace_back(span.end, *std::move(message));
  }
  return rows;
}

std::string clip(const std::string& text, std::size_t width) {
  if (text.size() <= width) return text;
  if (width <= 3) return text.substr(0, width);
  return text.substr(0, width - 3) + "...";
}

}  // namespace

obs::Span message_span(const AclMessage& message, double sent_at, double at, bool delivered,
                       std::string chaos) {
  obs::Span span;
  span.kind = obs::SpanKind::Message;
  span.name =
      message.protocol.empty() ? std::string(to_string(message.performative)) : message.protocol;
  span.start = sent_at;
  span.end = at;
  span.tags.emplace_back("performative", to_string(message.performative));
  span.tags.emplace_back("sender", message.sender);
  span.tags.emplace_back("receiver", message.receiver);
  span.tags.emplace_back("conversation", message.conversation_id);
  for (const auto& [key, value] : message.params) {
    std::string traced;
    if (value.size() <= kMaxTracedParam) {
      traced = value;
    } else {
      traced = '<';
      traced += std::to_string(value.size());
      traced += " bytes>";
    }
    span.tags.emplace_back(std::string(kParamPrefix) + key, std::move(traced));
  }
  if (!delivered) span.tags.emplace_back("delivered", "false");
  if (!chaos.empty()) span.tags.emplace_back("chaos", std::move(chaos));
  return span;
}

std::optional<AclMessage> message_of(const obs::Span& span) {
  if (span.kind != obs::SpanKind::Message) return std::nullopt;
  AclMessage message;
  for (const auto& [key, value] : span.tags) {
    if (key == "performative")
      message.performative = performative_from_string(value).value_or(Performative::Inform);
    else if (key == "sender") message.sender = value;
    else if (key == "receiver") message.receiver = value;
    else if (key == "conversation") message.conversation_id = value;
    else if (key.starts_with(kParamPrefix)) message.params[key.substr(kParamPrefix.size())] = value;
  }
  // The name is the protocol, or the performative when there was none.
  if (span.name != to_string(message.performative)) message.protocol = span.name;
  return message;
}

std::string trace_to_string(const std::vector<obs::Span>& spans) {
  std::string out;
  for (const obs::Span& span : spans) {
    const std::optional<AclMessage> message = message_of(span);
    if (!message) continue;
    out += "t=" + util::format_number(span.end, 4) + "  " + message->to_display_string();
    if (span.tag("delivered") != nullptr) out += "  (UNDELIVERABLE)";
    if (const std::string* what = span.tag("handler_error"))
      out += "  (HANDLER ERROR: " + *what + ")";
    if (const std::string* note = span.tag("chaos")) out += "  (CHAOS: " + *note + ")";
    out += '\n';
  }
  return out;
}

std::string render_arrows(const std::vector<obs::Span>& spans,
                          const std::vector<std::string>& protocols) {
  std::string out;
  for (const auto& [at, message] : selected(spans, protocols)) {
    const std::string label =
        clip(message.protocol.empty() ? std::string(to_string(message.performative))
                                      : message.protocol,
             kMaxLabelWidth);
    std::string arrow = "──" + label + "──";
    out += "t=" + util::format_number(at, 4);
    out.append(out.size() % 2, ' ');  // keep simple alignment stable
    out += "  " + message.sender + " " + arrow + "▶ " + message.receiver;
    out += "  [" + std::string(to_string(message.performative)) + "]\n";
  }
  return out;
}

std::string render_sequence_diagram(const std::vector<obs::Span>& spans,
                                    const std::vector<std::string>& protocols) {
  // Collect participants in first-appearance order.
  std::vector<std::string> participants;
  auto note = [&participants](const std::string& name) {
    if (std::find(participants.begin(), participants.end(), name) == participants.end())
      participants.push_back(name);
  };
  const std::vector<std::pair<double, AclMessage>> rows = selected(spans, protocols);
  for (const auto& [at, message] : rows) {
    note(message.sender);
    note(message.receiver);
  }
  if (rows.empty()) return "(no matching messages)\n";

  // Column layout: fixed-width lanes, one per participant.
  constexpr std::size_t lane_width = kMaxLabelWidth + 4;
  std::map<std::string, std::size_t> column;
  for (std::size_t i = 0; i < participants.size(); ++i) column[participants[i]] = i;
  const std::size_t time_width = 12;

  std::string out(time_width, ' ');
  for (const auto& participant : participants) {
    std::string cell = clip(participant, lane_width - 2);
    const std::size_t pad = lane_width - cell.size();
    out += std::string(pad / 2, ' ') + cell + std::string(pad - pad / 2, ' ');
  }
  out += '\n';

  for (const auto& [at, message] : rows) {
    const std::size_t from = column[message.sender];
    const std::size_t to = column[message.receiver];
    const std::size_t lo = std::min(from, to);
    const std::size_t hi = std::max(from, to);

    std::string line = "t=" + util::format_number(at, 3);
    line.resize(time_width, ' ');

    // Lifelines up to the arrow's start column.
    const std::size_t center_offset = lane_width / 2;
    std::string lanes(participants.size() * lane_width, ' ');
    for (std::size_t i = 0; i < participants.size(); ++i)
      lanes[i * lane_width + center_offset] = '|';

    const std::size_t start = lo * lane_width + center_offset;
    const std::size_t end = hi * lane_width + center_offset;
    if (start < end) {
      for (std::size_t i = start + 1; i < end; ++i) lanes[i] = '-';
      if (from < to) lanes[end - 1] = '>';
      else lanes[start + 1] = '<';
      // Label in the middle of the span.
      const std::string label = clip(message.protocol, end - start > 4 ? end - start - 4 : 1);
      const std::size_t label_start = start + 1 + (end - start - label.size()) / 2;
      for (std::size_t i = 0; i < label.size(); ++i) lanes[label_start + i] = label[i];
    } else {
      // Self-message.
      const std::string label = "(self) " + clip(message.protocol, 18);
      for (std::size_t i = 0; i < label.size() && start + 2 + i < lanes.size(); ++i)
        lanes[start + 2 + i] = label[i];
    }
    out += line + lanes + '\n';
  }
  return out;
}

}  // namespace ig::agent
