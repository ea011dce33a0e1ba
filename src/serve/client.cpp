#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <thread>

#include "common/check.hpp"

namespace mempool::serve {

ServiceResponse response_from_json(const Json& j) {
  MEMPOOL_CHECK_MSG(j.is_object() && j.contains("ok"),
                    "response line is not a server response: " << j.dump(0));
  ServiceResponse resp;
  resp.ok = j.at("ok").as_bool();
  if (!resp.ok) {
    resp.error = j.contains("error") ? j.at("error").as_string()
                                     : "unknown server error";
    resp.kind = j.get("kind", Json("invalid")).as_string();
    // A hint beyond int would wrap (2^31 reads as a negative wait, 2^32 as
    // none) and turn a backoff into an immediate retry.
    const uint64_t retry_after =
        j.get("retry_after_ms", Json(uint64_t{0})).as_uint();
    MEMPOOL_CHECK_MSG(retry_after <= INT_MAX,
                      "response member 'retry_after_ms' ("
                          << retry_after << ") exceeds " << INT_MAX);
    resp.retry_after_ms = static_cast<int>(retry_after);
    if (j.contains("liveness")) resp.liveness = j.at("liveness");
    return resp;
  }
  resp.result = SimResult::from_json(j.at("result"));
  resp.key = j.at("key").as_string();
  resp.cache_hit = j.at("cached").as_bool();
  resp.coalesced = j.at("coalesced").as_bool();
  resp.service_ms = j.at("service_ms").as_double();
  return resp;
}

SimClient::SimClient(const std::string& socket_path, int timeout_ms,
                     int read_timeout_ms)
    : fd_(connect_unix(socket_path, timeout_ms)), reader_(fd_) {
  if (read_timeout_ms > 0) {
    timeval tv{read_timeout_ms / 1000,
               static_cast<suseconds_t>(read_timeout_ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
}

SimClient::~SimClient() {
  if (fd_ >= 0) ::close(fd_);
}

void SimClient::send_line(const Json& line) {
  MEMPOOL_CHECK_MSG(write_all(fd_, line.dump(0) + "\n"),
                    "sim server connection lost while sending");
}

Json SimClient::recv_line() {
  std::string line;
  MEMPOOL_CHECK_MSG(reader_.read_line(&line),
                    "sim server closed the connection");
  return Json::parse(line);
}

Json SimClient::call(const Json& line) {
  send_line(line);
  return recv_line();
}

Json SimClient::make_run_line(const SimRequest& req, uint64_t* id_out) {
  const uint64_t id = next_id();
  if (id_out != nullptr) *id_out = id;
  Json j = Json::object();
  j.set("op", "run");
  j.set("id", id);
  Json r = req.to_json();
  // deadline_ms is delivery metadata, deliberately absent from the
  // canonical form — append it to the wire object separately.
  if (req.deadline_ms != 0) r.set("deadline_ms", req.deadline_ms);
  j.set("request", std::move(r));
  return j;
}

ServiceResponse SimClient::run(const SimRequest& req) {
  uint64_t id = 0;
  const Json resp = call(make_run_line(req, &id));
  MEMPOOL_CHECK_MSG(resp.is_object() && resp.contains("id") &&
                        resp.at("id").is_number() &&
                        static_cast<uint64_t>(resp.at("id").as_int()) == id,
                    "response id does not match request (pipelining with "
                    "run() is not supported; use send_line/recv_line)");
  return response_from_json(resp);
}

Json SimClient::op_call(const std::string& op) {
  Json j = Json::object();
  j.set("op", op);
  j.set("id", next_id());
  return call(j);
}

Json SimClient::metrics() {
  const Json resp = op_call("metrics");
  MEMPOOL_CHECK_MSG(resp.at("ok").as_bool(),
                    "metrics op failed: " << resp.dump(0));
  return resp.at("metrics");
}

bool SimClient::ping() {
  const Json resp = op_call("ping");
  return resp.at("ok").as_bool() && resp.at("pong").as_bool();
}

void SimClient::shutdown_server() {
  const Json resp = op_call("shutdown");
  MEMPOOL_CHECK_MSG(resp.at("ok").as_bool(),
                    "shutdown op failed: " << resp.dump(0));
}

// --- RetryingClient ---------------------------------------------------------

RetryingClient::RetryingClient(std::string socket_path, RetryPolicy policy)
    : socket_path_(std::move(socket_path)),
      policy_(policy),
      jitter_(policy.jitter_seed) {
  MEMPOOL_CHECK_MSG(policy_.max_attempts >= 1,
                    "RetryPolicy.max_attempts must be >= 1");
}

SimClient& RetryingClient::connected() {
  if (client_ == nullptr) {
    client_ = std::make_unique<SimClient>(
        socket_path_, policy_.connect_timeout_ms, policy_.read_timeout_ms);
  }
  return *client_;
}

void RetryingClient::disconnect() { client_.reset(); }

void RetryingClient::backoff(int attempt, int floor_ms) {
  // Capped exponential: base << attempt, clamped, plus jitter in [0, half)
  // so a fleet of clients hammered off a dead daemon does not reconnect in
  // lockstep. Deterministic per jitter_seed — tests replay exact schedules.
  int64_t ms = policy_.base_backoff_ms;
  for (int i = 0; i < attempt && ms < policy_.max_backoff_ms; ++i) ms *= 2;
  ms = std::min<int64_t>(ms, policy_.max_backoff_ms);
  if (ms > 1) ms += static_cast<int64_t>(jitter_.next_below(
      static_cast<uint64_t>(ms / 2 + 1)));
  ms = std::max<int64_t>(ms, floor_ms);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

ServiceResponse RetryingClient::run(const SimRequest& req) {
  std::string last_error;
  for (int attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) ++retries_;
    try {
      ServiceResponse resp = connected().run(req);
      if (!resp.ok && resp.kind == "overloaded" &&
          attempt + 1 < policy_.max_attempts) {
        // The daemon is up but shedding: wait at least its hint, then
        // re-issue on the same connection.
        backoff(attempt, resp.retry_after_ms);
        continue;
      }
      // Definitive: success, or a non-retryable structured error
      // (invalid / liveness / deadline_exceeded — retrying cannot help).
      return resp;
    } catch (const CheckError& e) {
      // Connection-level failure: refused connect, mid-response EOF, read
      // timeout. The daemon may be restarting — drop the socket, back off,
      // reconnect, re-issue. Idempotence makes the re-issue safe: a
      // response lost in flight is re-served from the result cache.
      last_error = e.what();
      disconnect();
      ++reconnects_;
      if (attempt + 1 < policy_.max_attempts) backoff(attempt, 0);
    }
  }
  MEMPOOL_CHECK_MSG(false, "sim server unreachable after "
                               << policy_.max_attempts
                               << " attempts; last error: " << last_error);
  __builtin_unreachable();  // check_fail above is [[noreturn]]
}

}  // namespace mempool::serve
