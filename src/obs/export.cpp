#include "obs/export.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

namespace ig::obs {

namespace {

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string prom_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// `{a="1",b="2"}` with optional extra label (histograms' `le`).
std::string prom_labels(const Labels& labels, const std::string& extra_key = "",
                        const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key + "=\"" + prom_escape(value) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key + "=\"" + prom_escape(extra_value) + "\"";
  }
  out += '}';
  return out;
}

}  // namespace

std::string to_prometheus(const RegistrySnapshot& snapshot) {
  std::string out;
  std::set<std::string> typed;
  // TYPE headers are emitted lazily, before a name's first *rendered*
  // sample: a name whose every point is skipped (non-finite) stays entirely
  // absent from the page instead of leaving an orphaned header.
  const auto type_header = [&](const MetricPoint& point) {
    if (typed.insert(point.name).second)
      out += "# TYPE " + point.name + " " + std::string(to_string(point.kind)) + "\n";
  };
  for (const auto& point : snapshot.points) {
    if (point.kind == MetricKind::Histogram) {
      type_header(point);
      const HistogramSnapshot& hist = point.histogram;
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
        cumulative += hist.buckets[i];
        out += point.name + "_bucket" +
               prom_labels(point.labels, "le", format_double(hist.bounds[i])) + " " +
               std::to_string(cumulative) + "\n";
      }
      cumulative += hist.buckets.empty() ? 0 : hist.buckets.back();
      out += point.name + "_bucket" + prom_labels(point.labels, "le", "+Inf") + " " +
             std::to_string(cumulative) + "\n";
      out += point.name + "_sum" + prom_labels(point.labels) + " " +
             format_double(hist.sum) + "\n";
      out += point.name + "_count" + prom_labels(point.labels) + " " +
             std::to_string(hist.count) + "\n";
      continue;
    }
    if (!std::isfinite(point.value)) continue;  // absent point, not a fake zero
    type_header(point);
    out += point.name + prom_labels(point.labels) + " " + format_double(point.value) + "\n";
  }
  return out;
}

std::string to_chrome_trace(const std::vector<Span>& spans) {
  // One tid row per case keeps concurrent cases visually separate in
  // Perfetto; ids are assigned in first-seen order, so the layout is
  // deterministic for a deterministic span stream.
  std::map<std::string, int> case_rows;
  for (const auto& span : spans) {
    case_rows.emplace(span.case_id, static_cast<int>(case_rows.size()) + 1);
  }
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& span : spans) {
    if (!span.closed) continue;
    if (!first) out += ',';
    first = false;
    const double ts = span.start * 1e6;        // sim seconds -> microseconds
    const double dur = (span.end - span.start) * 1e6;
    const std::string head = "{\"name\":\"" + json_escape(span.name) + "\",\"cat\":\"" +
                             std::string(to_string(span.kind)) + "\"";
    const std::string row = ",\"pid\":1,\"tid\":" + std::to_string(case_rows[span.case_id]);
    std::string args = ",\"args\":{\"id\":" + std::to_string(span.id);
    args += ",\"parent\":" + std::to_string(span.parent);
    args += ",\"case\":\"" + json_escape(span.case_id) + "\"";
    for (const auto& [key, value] : span.tags) {
      args += ",\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
    }
    args += "}";
    if (span.kind == SpanKind::Message) {
      // Messages in flight overlap freely, and overlapping complete events
      // on one row do not nest: a message is an async begin/end pair,
      // matched by its span id.
      const std::string id = ",\"id\":" + std::to_string(span.id);
      out += head + ",\"ph\":\"b\"" + id + ",\"ts\":" + format_double(ts) + row + args + "},";
      out += head + ",\"ph\":\"e\"" + id +
             ",\"ts\":" + format_double(dur < 0.0 ? ts : ts + dur) + row + "}";
      continue;
    }
    out += head + ",\"ph\":\"X\"";
    out += ",\"ts\":" + format_double(ts);
    out += ",\"dur\":" + format_double(dur < 0.0 ? 0.0 : dur);
    out += row + args + "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string to_json_lines(const RegistrySnapshot& snapshot, const std::string& source) {
  std::string out;
  const auto number_or_null = [](double value) {
    return std::isfinite(value) ? format_double(value) : std::string("null");
  };
  for (const auto& point : snapshot.points) {
    std::string line = "{\"source\":\"" + json_escape(source) + "\"";
    line += ",\"metric\":\"" + json_escape(point.name) + "\"";
    line += ",\"kind\":\"" + std::string(to_string(point.kind)) + "\"";
    for (const auto& [key, value] : point.labels) {
      line += ",\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
    }
    if (point.kind == MetricKind::Histogram) {
      const HistogramSnapshot& hist = point.histogram;
      line += ",\"count\":" + std::to_string(hist.count);
      line += ",\"sum\":" + number_or_null(hist.sum);
      line += ",\"p50\":" + number_or_null(hist.quantile(50.0));
      line += ",\"p99\":" + number_or_null(hist.quantile(99.0));
    } else {
      line += ",\"value\":" + number_or_null(point.value);
    }
    line += "}\n";
    out += line;
  }
  return out;
}

// -- validators ---------------------------------------------------------------

namespace {

/// Strict recursive-descent JSON syntax checker.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool run(std::string* error) {
    skip_space();
    if (!value()) return fail(error);
    skip_space();
    if (pos_ != text_.size()) {
      message_ = "trailing content";
      return fail(error);
    }
    return true;
  }

 private:
  bool fail(std::string* error) {
    if (error != nullptr)
      *error = message_.empty() ? "malformed JSON" : message_;
    if (error != nullptr) *error += " at offset " + std::to_string(pos_);
    return false;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c) {
      if (!eat(*c)) {
        message_ = std::string("bad literal (expected '") + word + "')";
        return false;
      }
    }
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    eat('-');
    if (eat('0')) {
      // no leading zeros
    } else {
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        message_ = "expected a value";
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (eat('.')) {
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        message_ = "bad fraction";
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        message_ = "bad exponent";
        return false;
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool string() {
    if (!eat('"')) {
      message_ = "expected a string";
      return false;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        message_ = "unescaped control character in string";
        return false;
      }
      if (c == '\\') {
        ++pos_;
        const char escape = peek();
        if (escape == 'u') {
          ++pos_;
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(peek()))) {
              message_ = "bad \\u escape";
              return false;
            }
            ++pos_;
          }
          continue;
        }
        if (std::string("\"\\/bfnrt").find(escape) == std::string::npos) {
          message_ = "bad escape";
          return false;
        }
        ++pos_;
        continue;
      }
      ++pos_;
    }
    message_ = "unterminated string";
    return false;
  }

  bool array() {
    eat('[');
    skip_space();
    if (eat(']')) return true;
    for (;;) {
      if (!value()) return false;
      skip_space();
      if (eat(']')) return true;
      if (!eat(',')) {
        message_ = "expected ',' or ']'";
        return false;
      }
      skip_space();
    }
  }

  bool object() {
    eat('{');
    skip_space();
    if (eat('}')) return true;
    for (;;) {
      if (!string()) return false;
      skip_space();
      if (!eat(':')) {
        message_ = "expected ':'";
        return false;
      }
      skip_space();
      if (!value()) return false;
      skip_space();
      if (eat('}')) return true;
      if (!eat(',')) {
        message_ = "expected ',' or '}'";
        return false;
      }
      skip_space();
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string message_;
};

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  const auto name_char = [](char c, bool first) {
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':') return true;
    return !first && std::isdigit(static_cast<unsigned char>(c));
  };
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (!name_char(name[i], i == 0)) return false;
  }
  return true;
}

}  // namespace

bool validate_json(const std::string& text, std::string* error) {
  return JsonChecker(text).run(error);
}

bool validate_prometheus(const std::string& text, std::string* error) {
  const auto fail = [&](std::size_t line_number, const std::string& why) {
    if (error != nullptr)
      *error = "line " + std::to_string(line_number) + ": " + why;
    return false;
  };
  std::size_t line_number = 0;
  std::size_t start = 0;
  bool saw_sample = false;
  while (start <= text.size()) {
    std::size_t stop = text.find('\n', start);
    if (stop == std::string::npos) stop = text.size();
    const std::string line = text.substr(start, stop - start);
    start = stop + 1;
    ++line_number;
    if (line.empty()) {
      if (start > text.size()) break;
      continue;
    }
    if (line[0] == '#') continue;

    // name[{labels}] value
    std::size_t name_end = 0;
    while (name_end < line.size() && line[name_end] != '{' && line[name_end] != ' ')
      ++name_end;
    if (!valid_metric_name(line.substr(0, name_end)))
      return fail(line_number, "bad metric name");
    std::size_t cursor = name_end;
    if (cursor < line.size() && line[cursor] == '{') {
      const std::size_t close = line.find('}', cursor);
      if (close == std::string::npos) return fail(line_number, "unterminated label set");
      // Each label must look like key="value".
      std::size_t label_pos = cursor + 1;
      while (label_pos < close) {
        std::size_t eq = line.find('=', label_pos);
        if (eq == std::string::npos || eq > close)
          return fail(line_number, "label without '='");
        if (eq + 1 >= close || line[eq + 1] != '"')
          return fail(line_number, "unquoted label value");
        std::size_t quote = eq + 2;
        while (quote < close && !(line[quote] == '"' && line[quote - 1] != '\\')) ++quote;
        if (quote >= close && !(quote == close - 0 && line[close - 1] == '"'))
          if (quote >= close) return fail(line_number, "unterminated label value");
        label_pos = quote + 1;
        if (label_pos < close && line[label_pos] == ',') ++label_pos;
      }
      cursor = close + 1;
    }
    if (cursor >= line.size() || line[cursor] != ' ')
      return fail(line_number, "missing value separator");
    const std::string rendered = line.substr(cursor + 1);
    char* parse_end = nullptr;
    const double value = std::strtod(rendered.c_str(), &parse_end);
    if (parse_end == rendered.c_str() || *parse_end != '\0')
      return fail(line_number, "unparseable sample value");
    if (!std::isfinite(value)) return fail(line_number, "non-finite sample value");
    saw_sample = true;
  }
  if (!saw_sample) return fail(line_number, "no samples");
  return true;
}

}  // namespace ig::obs
