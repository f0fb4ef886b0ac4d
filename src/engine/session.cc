#include "engine/session.h"

namespace smoothscan {

// ---------------------------------------------------------------- QueryHandle

QueryHandle& QueryHandle::operator=(QueryHandle&& other) noexcept {
  if (this == &other) return *this;
  if (valid()) {
    Cancel();
    Wait();
  }
  ticket_ = std::move(other.ticket_);
  return *this;
}

QueryHandle::~QueryHandle() {
  if (valid()) {
    // Abandoned handle (e.g. a dropped connection): cancel, so the executor
    // never blocks on a stream nobody reads, and wait, so nothing the spec
    // borrowed is used after the handle is gone.
    Cancel();
    Wait();
  }
}

void QueryHandle::Cancel() {
  // The flag goes up before the lane search: an executor that pops the
  // query after this point sees it at admission, and one that popped it
  // before sees it between batches. A finished query is left alone, and the
  // session is not touched then: a waited handle may outlive it.
  if (valid() && ticket_->Cancel()) {
    ticket_->session()->engine()->CancelQueued(ticket_.get());
  }
}

// -------------------------------------------------------------- QueryBuilder

QueryBuilder::QueryBuilder(Session* session) : session_(session) {
  spec_.lane = session->options().lane;
}

QueryHandle QueryBuilder::Submit() {
  return session_->SubmitSpec(std::move(spec_), stream_);
}

// ------------------------------------------------------------------- Session

Session::Session(QueryEngine* engine, SessionOptions options)
    : engine_(engine), options_(std::move(options)) {
  SMOOTHSCAN_CHECK(engine_ != nullptr);
  SMOOTHSCAN_CHECK(options_.max_outstanding >= 1);
  latch::LatchGuard lock(mu_);
  window_ = options_.max_outstanding;
}

Session::~Session() {
  // Every query's completion callback has fired once outstanding_ drains, so
  // after this no engine thread can touch the session again.
  latch::UniqueLatch lock(mu_);
  while (outstanding_ != 0) cv_.wait(lock);
}

void Session::SetWindow(uint32_t window) {
  SMOOTHSCAN_CHECK(window >= 1);
  latch::LatchGuard lock(mu_);
  window_ = window;
  cv_.notify_all();
}

uint32_t Session::window() const {
  latch::LatchGuard lock(mu_);
  return window_;
}

uint32_t Session::outstanding() const {
  latch::LatchGuard lock(mu_);
  return outstanding_;
}

uint64_t Session::window_stalls() const {
  latch::LatchGuard lock(mu_);
  return window_stalls_;
}

QueryHandle Session::SubmitSpec(QuerySpec spec, bool stream) {
  {
    latch::UniqueLatch lock(mu_);
    if (outstanding_ >= window_) {
      ++window_stalls_;
      while (outstanding_ >= window_) cv_.wait(lock);
    }
    ++outstanding_;
  }
  return QueryHandle(engine_->SubmitSpec(std::move(spec), this, stream));
}

void Session::OnComplete() {
  // Notify under the latch: a ~Session waiter may destroy the session the
  // moment the count hits zero, so cv_ must not be touched after unlock.
  latch::LatchGuard lock(mu_);
  SMOOTHSCAN_CHECK(outstanding_ > 0);
  --outstanding_;
  cv_.notify_all();
}

}  // namespace smoothscan
