#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string_view>

namespace perfbench {

namespace {

/// Small dense thread index for the trace's "tid" column.
unsigned this_thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index = next.fetch_add(1);
  return index;
}

double micros(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock{mu_};
  return next_id_++;
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock{mu_};
  spans_.push_back(span);
}

std::vector<double> Tracer::seconds_of(const std::string& name) const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.seconds());
  }
  return out;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const double s : seconds_of(name)) total += s;
  return total;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& context_json) const {
  const std::lock_guard<std::mutex> lock{mu_};
  const std::unique_ptr<std::FILE, FileCloser> f{
      std::fopen(path.c_str(), "w")};
  if (f == nullptr) return false;
  std::fprintf(f.get(), "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,\n",
               context_json.c_str());
  std::fprintf(f.get(), "\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu",
                 first ? "" : ",\n", s.name,
                 // category = the module prefix of the span name
                 static_cast<int>(std::string_view{s.name}.find('.')), s.name,
                 s.thread, micros(origin_, s.start),
                 micros(s.start, s.end),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    if (s.arg >= 0) {
      std::fprintf(f.get(), ",\"%s\":%lld", s.arg_name,
                   static_cast<long long>(s.arg));
    }
    std::fprintf(f.get(), "}}");
    first = false;
  }
  std::fprintf(f.get(), "\n]}\n");
  return std::ferror(f.get()) == 0;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent,
                       const char* arg_name, std::int64_t arg)
    : tracer_(tracer) {
  span_.name = name;
  span_.id = tracer.next_id();
  span_.parent = parent;
  span_.thread = this_thread_index();
  span_.arg_name = arg_name;
  span_.arg = arg;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  span_.end = Clock::now();
  try {
    tracer_.record(span_);
  } catch (...) {
    tracer_.mark_lost();
  }
}

}  // namespace perfbench
