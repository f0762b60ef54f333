#include "obs/span.hpp"

namespace ig::obs {

const char* to_string(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::Case: return "case";
    case SpanKind::Activity: return "activity";
    case SpanKind::Barrier: return "barrier";
    case SpanKind::Choice: return "choice";
    case SpanKind::Iteration: return "iteration";
    case SpanKind::Step: return "step";
    case SpanKind::Message: return "message";
  }
  return "?";
}

const std::string* Span::tag(const std::string& key) const noexcept {
  for (const auto& [k, v] : tags) {
    if (k == key) return &v;
  }
  return nullptr;
}

void SpanTracer::set_limit(std::size_t limit) {
  std::lock_guard<std::mutex> lock(mutex_);
  limit_ = limit;
  trim_locked();
}

std::size_t SpanTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void SpanTracer::count_drops_into(Counter* counter) {
  std::lock_guard<std::mutex> lock(mutex_);
  drop_counter_ = counter;
}

SpanId SpanTracer::begin(SpanKind kind, std::string name, std::string case_id, SpanId parent,
                         double at) {
  if (!enabled()) return 0;  // the disabled path builds nothing
  return insert(Span{.parent = parent, .kind = kind, .name = std::move(name),
                     .case_id = std::move(case_id), .start = at, .end = at, .tags = {}});
}

void SpanTracer::tag(SpanId id, std::string key, std::string value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spans_.find(id);
  if (it == spans_.end()) return;
  it->second.tags.emplace_back(std::move(key), std::move(value));
}

void SpanTracer::end(SpanId id, double at) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spans_.find(id);
  if (it == spans_.end() || it->second.closed) return;
  it->second.end = at;
  it->second.closed = true;
}

SpanId SpanTracer::instant(SpanKind kind, std::string name, std::string case_id, SpanId parent,
                           double at) {
  const SpanId id = begin(kind, std::move(name), std::move(case_id), parent, at);
  end(id, at);
  return id;
}

SpanId SpanTracer::record(Span span) {
  span.closed = true;
  return insert(std::move(span));
}

SpanId SpanTracer::insert(Span span) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = next_++;
  const SpanId id = span.id;
  spans_.emplace(id, std::move(span));
  trim_locked();
  return id;
}

std::size_t SpanTracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<Span> SpanTracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  out.reserve(spans_.size());
  for (const auto& [id, span] : spans_) out.push_back(span);
  return out;
}

std::vector<Span> SpanTracer::case_spans(const std::string& case_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& [id, span] : spans_) {
    if (span.case_id == case_id) out.push_back(span);
  }
  return out;
}

void SpanTracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  dropped_ = 0;
}

void SpanTracer::trim_locked() {
  if (limit_ == 0) return;
  auto it = spans_.begin();
  while (spans_.size() > limit_ && it != spans_.end()) {
    if (it->second.closed) {
      it = spans_.erase(it);
      ++dropped_;
      if (drop_counter_ != nullptr) drop_counter_->inc();
    } else {
      ++it;
    }
  }
}

}  // namespace ig::obs
