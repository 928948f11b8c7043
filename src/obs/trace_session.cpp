#include "obs/trace_session.hpp"

#include <cstring>

#include "obs/trace_recorder.hpp"

namespace qip::obs {

std::string extract_trace_arg(int& argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      std::string path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return path;
    }
  }
  return "";
}

TraceRecorder& TraceSession::recorder() const {
  return recorder_ ? *recorder_ : process_recorder();
}

TraceSession::TraceSession(std::string path, TraceRecorder* recorder)
    : path_(std::move(path)), recorder_(recorder) {
  if (path_.empty()) return;
  TraceRecorder& r = this->recorder();
  was_enabled_ = r.enabled();
  r.enable();
  r.clear();
}

bool TraceSession::dump() {
  if (path_.empty()) return true;
  TraceRecorder& r = recorder();
  const bool ok = r.dump_file(path_);  // reports a wrap or failure itself
  if (!was_enabled_) r.disable();
  path_.clear();
  return ok;
}

TraceSession::~TraceSession() { dump(); }

TraceSession::TraceSession(TraceSession&& other) noexcept
    : path_(std::move(other.path_)),
      recorder_(other.recorder_),
      was_enabled_(other.was_enabled_) {
  other.path_.clear();
}

TraceSession& TraceSession::operator=(TraceSession&& other) noexcept {
  if (this != &other) {
    dump();
    path_ = std::move(other.path_);
    recorder_ = other.recorder_;
    was_enabled_ = other.was_enabled_;
    other.path_.clear();
  }
  return *this;
}

}  // namespace qip::obs
