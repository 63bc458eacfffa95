#include "runtime/event_loop.hpp"

#include <algorithm>

#include "common/errors.hpp"

namespace repchain::runtime {

void EventLoop::schedule_at(SimTime t, Callback cb) {
  // NetError (not a runtime-specific type) is kept for compatibility with
  // the simulator event queue this class grew out of.
  if (t < now_) throw NetError("cannot schedule event in the past");
  heap_.push_back(Event{EventKey{t, next_seq_++}, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventLoop::Event EventLoop::pop_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

std::size_t EventLoop::run(std::size_t max_events) {
  std::size_t n = 0;
  while (!heap_.empty() && n < max_events) {
    // The callback is moved out before dispatch so it can schedule new
    // events (including re-entrant pushes into this heap).
    Event ev = pop_next();
    now_ = ev.key.time;
    ev.cb();
    ++n;
    ++processed_;
  }
  return n;
}

std::size_t EventLoop::run_until(SimTime until) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().key.time <= until) {
    Event ev = pop_next();
    now_ = ev.key.time;
    ev.cb();
    ++n;
    ++processed_;
  }
  if (now_ < until) now_ = until;
  return n;
}

}  // namespace repchain::runtime
