/**
 * @file
 * The cmt_served network core: one epoll event loop over unix-domain
 * stream sockets, running every request to completion on the thread
 * that read it.
 *
 * Threading model (one event loop, run to completion, reply-side
 * backpressure):
 *
 *  - One epoll thread owns every socket and every connection. It
 *    accepts, reads bytes into a per-connection input buffer, executes
 *    each complete frame straight from that buffer against the
 *    stores, appends the framed reply to the connection's output
 *    buffer and sends it in the same pass. Requests on a connection
 *    therefore execute and reply in arrival order, with no hand-off
 *    and no lock. The thread owns every store (serve/store.h); other
 *    callers touch a store only while no request is in flight.
 *  - A long request (kVerify or kSave on a large store) delays every
 *    connection, and requests to different stores do not overlap.
 *
 * Backpressure sits on the reply side. While a connection holds
 * kReplyBacklogBytes or more of unsent reply bytes, the loop executes
 * none of its frames and parks its EPOLLIN; EPOLLOUT drains the
 * backlog and resumes both. The input buffer never holds more than
 * one maximum frame plus one recv, so a client that pipelines
 * requests and never reads its replies costs the daemon a bounded
 * amount of memory and stalls only itself.
 *
 * Graceful shutdown (requestStop(), a kShutdown request, or a signal
 * handler - the signal path is async-signal-safe: one atomic store
 * and one eventfd write) stops accepting, executes every complete
 * frame already read, flushes every reply, then closes every
 * connection and exits the thread. A connection whose unsent replies
 * make no progress for kStopStallLimit is dropped with them, so a
 * peer that never reads cannot hold the stop. The daemon then saves
 * store state through ServeStore::saveState().
 */

#ifndef CMT_SERVE_SERVER_H
#define CMT_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/protocol.h"
#include "serve/store.h"

namespace cmt::serve
{

/** Daemon settings. */
struct ServeConfig
{
    /** Filesystem path of the listening socket (<= ~100 chars: the
     *  kernel's sun_path limit). */
    std::string socketPath;
};

/** Unsent reply bytes at which a connection stops executing frames
 *  and reading until the peer drains them. */
constexpr std::size_t kReplyBacklogBytes = kMaxFrameBytes;

/** While stopping, a connection whose unsent replies have made no
 *  progress for this long is dropped. */
constexpr std::chrono::seconds kStopStallLimit{2};

/** The daemon core. Register stores, start(), then waitUntilStopped(). */
class Server
{
  public:
    explicit Server(ServeConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Register a store before start(); the returned id is the wire
     * store id (registration order from 0).
     */
    std::uint32_t addStore(std::unique_ptr<ServeStore> store);

    /** Store by wire id; nullptr when out of range. */
    ServeStore *store(std::uint32_t id);
    std::size_t storeCount() const { return stores_.size(); }

    /**
     * Bind the socket and launch the epoll thread.
     * @return false with @p err set when the socket cannot be bound
     * (path too long, address in use by a live daemon, permissions).
     */
    bool start(std::string *err);

    /**
     * Ask the daemon to stop: execute the frames already read, flush
     * replies, exit the thread. Async-signal-safe (atomic store +
     * eventfd write), so signal handlers may call it directly.
     */
    void requestStop();

    /** Block until the epoll thread has exited. */
    void waitUntilStopped();

    /** True between a successful start() and thread exit. */
    bool running() const { return running_.load(); }

    /** Server-wide counters (lock-free snapshot). */
    ServerStats statsSnapshot() const;

  private:
    /** Per-connection state; the epoll thread alone touches it. */
    struct Connection
    {
        explicit Connection(int fd_in) : fd(fd_in) {}
        ~Connection();
        Connection(const Connection &) = delete;
        Connection &operator=(const Connection &) = delete;

        const int fd;
        /** Bytes read but not yet executed (at most a partial frame
         *  unless the reply backlog is full). */
        std::vector<std::uint8_t> inbuf;
        /** Framed reply bytes not yet accepted by the socket. */
        std::vector<std::uint8_t> outbuf;
        std::uint32_t armed = 0; ///< epoll events currently registered
        /** EOF or framing error: never read again, close once every
         *  reply is sent. */
        bool stopRead = false;
        /** The peer is gone: drop everything and close now. */
        bool dead = false;
        /** Reply bytes sent so far. */
        std::uint64_t sentBytes = 0;
        /** While stopping: sentBytes when the unsent replies were last
         *  seen to move (kNoMark: none pending), and when. */
        std::uint64_t stallMark = kNoMark;
        std::chrono::steady_clock::time_point stallSince;
        static constexpr std::uint64_t kNoMark = ~std::uint64_t{0};
    };

    void epollLoop();
    void acceptAll();
    /** Read what the socket holds, up to the input buffer's cap. */
    void receive(Connection &c);
    /** Execute frames and send replies until the input holds no
     *  complete frame or the backlog bound stops it, then update the
     *  connection's epoll interest or destroy it. */
    void serve(Connection &c);
    /** Execute complete frames from the input buffer while the reply
     *  backlog is under its bound; true when the bound stopped it. */
    bool executeFrames(Connection &c);
    void executeRequest(std::uint8_t op,
                        std::span<const std::uint8_t> payload,
                        std::vector<std::uint8_t> &replies);
    /** Reply to a read or write: @p data on kOk, else @p err under the
     *  outcome's status (kCorrupt also counts a verify failure). */
    void replyStoreOutcome(StoreOutcome outcome,
                           std::span<const std::uint8_t> data,
                           const std::string &err,
                           std::vector<std::uint8_t> &replies);
    /** Flush as much of outbuf as the socket accepts right now. */
    void sendPending(Connection &c);
    void updateInterest(Connection &c, std::uint32_t events);
    void destroyConnection(int fd);
    /** Stopping and no connection has a reply left to send. */
    bool drained() const;
    /** Drop each connection whose unsent replies have not moved for
     *  kStopStallLimit. */
    void dropStalled();

    ServeConfig config_;
    std::vector<std::unique_ptr<ServeStore>> stores_;

    int listenFd_ = -1;
    int epollFd_ = -1;
    /** Wakes the epoll thread for requestStop(). */
    int wakeFd_ = -1;

    std::thread epollThread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    /** Live connections by fd. */
    std::unordered_map<int, std::unique_ptr<Connection>> conns_;

    std::atomic<std::uint64_t> connections_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> verifyFailures_{0};
    std::atomic<std::uint64_t> bytesIn_{0};
    std::atomic<std::uint64_t> bytesOut_{0};
};

} // namespace cmt::serve

#endif // CMT_SERVE_SERVER_H
