// The campaign scheduler daemon: a single-threaded poll(2) loop that owns
// the durable campaign queue and serves two loopback TCP endpoints:
//
//   worker port  length-prefixed, CRC-framed protocol.h messages. Workers
//                say hello, request work, receive chunk leases, stream
//                result records back, and are told to wait or that the
//                queue is idle.
//   http port    minimal HTTP/1.1 (Connection: close) JSON API:
//                  GET  /campaigns        queue summary
//                  GET  /campaigns/<id>   live coverage + lease state
//                  POST /campaigns        submit {"preset", "priority",
//                                         "chunk_units"}
//                curl is the only client this needs to satisfy.
//
// Single-threaded on purpose: every lease decision, record fold, and
// status snapshot happens on one thread, so the queue and lease tables
// need no locks and the daemon's behavior is a deterministic function of
// the message arrival order. The simulation work all happens in workers;
// the scheduler only coordinates, so one thread is ample.
//
// Lease lifecycle (see service/lease.h for the chunk state machine):
// grants are time-bounded on the monotonic clock; the poll timeout is
// pinned to the nearest lease deadline, so expiry reclaim needs no timer
// thread. A worker disconnect releases its leases immediately — faster
// than waiting out the deadline, but equivalent: either way the chunk
// returns to pending and the streaming merge dedups any double delivery.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "service/queue.h"
#include "util/net.h"
#include "util/status.h"

namespace cmldft::service {

struct SchedulerOptions {
  std::string state_dir;
  uint16_t worker_port = 0;  ///< 0 = ephemeral
  uint16_t http_port = 0;    ///< 0 = ephemeral
  double lease_seconds = 30.0;
  uint64_t chunk_units = 16;  ///< default lease size (submit may override)
  int fsync_batch = 8;
  uint32_t retry_ms = 200;  ///< worker backoff when all chunks are leased
  /// Exit Run() once every campaign is complete (or the queue is empty)
  /// and the last worker connection has drained. Off = serve forever.
  bool idle_exit = false;
  /// Crash injection: arm SetKillAtSize on every campaign store.
  uint64_t abort_at_bytes = 0;
};

class Scheduler {
 public:
  /// Open the state dir (recovering campaigns), bind both listeners.
  static util::StatusOr<std::unique_ptr<Scheduler>> Create(
      const SchedulerOptions& options);

  uint16_t worker_port() const { return worker_listener_.port(); }
  uint16_t http_port() const { return http_listener_.port(); }
  CampaignQueue& queue() { return queue_; }

  /// Submit a campaign (startup --submit flags and the HTTP POST both
  /// route through here so the service.* counters agree).
  util::StatusOr<uint64_t> Submit(std::string_view preset, int priority,
                                  uint64_t chunk_units);

  /// Serve until idle-exit (see SchedulerOptions) or a fatal error.
  util::Status Run();

 private:
  // HTTP request caps: header bytes before the blank line, and the
  // Content-Length a request may declare. Larger requests get 413.
  static constexpr size_t kMaxHttpHeaderBytes = 16 << 10;
  static constexpr size_t kMaxHttpBodyBytes = 1 << 20;

  struct Conn {
    int fd = -1;
    bool is_http = false;
    bool hello_done = false;
    bool close_after_write = false;
    std::string worker;  ///< name from kHello
    std::string in;
    std::string out;
  };

  Scheduler(SchedulerOptions options, CampaignQueue queue,
            util::TcpListener worker_listener, util::TcpListener http_listener)
      : options_(std::move(options)),
        queue_(std::move(queue)),
        worker_listener_(std::move(worker_listener)),
        http_listener_(std::move(http_listener)) {}

  void AcceptFrom(util::TcpListener& listener, bool is_http);
  /// Drain readable bytes; returns false when the connection is done.
  bool ReadConn(Conn& conn, double now);
  bool ProcessWorkerFrames(Conn& conn, double now);
  void ProcessHttpRequest(Conn& conn);
  void HandleWorkerMessage(Conn& conn, const Message& msg, double now);
  void SendToWorker(Conn& conn, const Message& msg);
  void QueueHttpResponse(Conn& conn, int status_code,
                         const std::string& body);
  /// Best-effort immediate flush; leftover bytes wait for POLLOUT.
  void TrySend(Conn& conn);
  void DropWorkerLeases(const std::string& worker);
  void ExpireDueLeases(double now);
  /// Poll timeout to the nearest lease deadline, clamped.
  int PollTimeoutMs(double now);
  bool WorkerConnectionsOpen() const;

  SchedulerOptions options_;
  CampaignQueue queue_;
  util::TcpListener worker_listener_;
  util::TcpListener http_listener_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace cmldft::service
