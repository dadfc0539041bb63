#include "serve/server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "serve/store.h"
#include "support/logging.h"

namespace cmt::serve
{

namespace
{

constexpr std::span<const std::uint8_t> kNoBytes{};

/** epoll_wait timeout while stopping, so that stalled connections
 *  are dropped on time even when no socket wakes the loop. */
constexpr int kStopPollMs = 100;

/** Input buffer cap: one maximum frame. A connection reads while its
 *  buffer is under the cap, so it never holds more than one maximum
 *  frame plus one recv. */
constexpr std::size_t kInputCapBytes = kHeaderBytes + kMaxFrameBytes;

/** What the front of a byte range holds. */
enum class FrameScan
{
    kIncomplete,
    /** A zero-length or oversized length prefix. */
    kMalformed,
    kComplete,
};

/** Classify the frame at the front of @p in; a complete one's size,
 *  length prefix included, goes to @p frame_bytes. */
FrameScan
scanFrame(std::span<const std::uint8_t> in, std::size_t *frame_bytes)
{
    if (in.size() < kHeaderBytes)
        return FrameScan::kIncomplete;
    const std::uint32_t len = readU32(in.data());
    if (len == 0 || len > kMaxFrameBytes)
        return FrameScan::kMalformed;
    if (in.size() - kHeaderBytes < len)
        return FrameScan::kIncomplete;
    *frame_bytes = kHeaderBytes + len;
    return FrameScan::kComplete;
}

/**
 * A path can only be bound once: probe an existing socket file and
 * refuse to displace a live daemon; a stale file (dead daemon) is
 * unlinked so bind() can succeed.
 */
bool
claimSocketPath(const std::string &path, std::string *err)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe < 0) {
        *err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int rc = ::connect(
        probe, reinterpret_cast<const sockaddr *>(&addr), sizeof addr);
    ::close(probe);
    if (rc == 0) {
        *err = "socket '" + path + "' is in use by a live daemon";
        return false;
    }
    ::unlink(path.c_str()); // stale or absent; bind() reports the rest
    return true;
}

} // namespace

Server::Connection::~Connection()
{
    if (fd >= 0)
        ::close(fd);
}

Server::Server(ServeConfig config) : config_(std::move(config)) {}

Server::~Server()
{
    requestStop();
    waitUntilStopped();
    if (epollFd_ >= 0)
        ::close(epollFd_);
    if (wakeFd_ >= 0)
        ::close(wakeFd_);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(config_.socketPath.c_str());
    }
}

std::uint32_t
Server::addStore(std::unique_ptr<ServeStore> store)
{
    cmt_assert(!running_.load());
    stores_.push_back(std::move(store));
    return static_cast<std::uint32_t>(stores_.size() - 1);
}

ServeStore *
Server::store(std::uint32_t id)
{
    return id < stores_.size() ? stores_[id].get() : nullptr;
}

bool
Server::start(std::string *err)
{
    sockaddr_un addr{};
    if (config_.socketPath.empty() ||
        config_.socketPath.size() >= sizeof(addr.sun_path)) {
        *err = "socket path empty or longer than the kernel sun_path "
               "limit";
        return false;
    }
    if (stores_.empty()) {
        *err = "no stores registered";
        return false;
    }
    if (!claimSocketPath(config_.socketPath, err))
        return false;

    listenFd_ = ::socket(AF_UNIX,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0) {
        *err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, config_.socketPath.c_str(),
                config_.socketPath.size());
    if (::bind(listenFd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listenFd_, 128) != 0) {
        *err = "bind/listen on '" + config_.socketPath +
               "': " + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wakeFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (epollFd_ < 0 || wakeFd_ < 0) {
        *err = std::string("epoll/eventfd: ") + std::strerror(errno);
        return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) != 0) {
        *err = std::string("epoll_ctl: ") + std::strerror(errno);
        return false;
    }
    ev.data.fd = wakeFd_;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) != 0) {
        *err = std::string("epoll_ctl: ") + std::strerror(errno);
        return false;
    }

    running_.store(true);
    epollThread_ = std::thread([this] { epollLoop(); });
    return true;
}

void
Server::requestStop()
{
    stopping_.store(true);
    if (wakeFd_ >= 0) {
        const std::uint64_t one = 1;
        const ssize_t r = ::write(wakeFd_, &one, sizeof one);
        (void)r;
    }
}

void
Server::waitUntilStopped()
{
    if (epollThread_.joinable())
        epollThread_.join();
}

ServerStats
Server::statsSnapshot() const
{
    ServerStats s;
    s.connections = connections_.load();
    s.requests = requests_.load();
    for (const auto &st : stores_) {
        s.readOps += st->readOps();
        s.writeOps += st->writeOps();
    }
    s.verifyFailures = verifyFailures_.load();
    s.bytesIn = bytesIn_.load();
    s.bytesOut = bytesOut_.load();
    return s;
}

// ---------------------------------------------------------- event loop

void
Server::epollLoop()
{
    std::vector<epoll_event> events(64);
    bool listening = true;
    while (true) {
        if (stopping_.load()) {
            if (listening) {
                // A pending connect would keep the level-triggered
                // listen socket ready for the rest of the drain.
                ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
                listening = false;
            }
            dropStalled();
            if (drained())
                break;
        }
        const int n = ::epoll_wait(epollFd_, events.data(),
                                   static_cast<int>(events.size()),
                                   listening ? -1 : kStopPollMs);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("cmt_served: epoll_wait: %s", std::strerror(errno));
            break;
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == listenFd_) {
                if (!stopping_.load())
                    acceptAll();
                continue;
            }
            if (fd == wakeFd_) {
                std::uint64_t v = 0;
                while (::read(wakeFd_, &v, sizeof v) > 0) {
                }
                continue;
            }
            auto it = conns_.find(fd);
            if (it == conns_.end())
                continue;
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                // The peer is gone: nobody is left to read a reply.
                destroyConnection(fd);
                continue;
            }
            Connection &c = *it->second;
            if (events[i].events & EPOLLIN)
                receive(c);
            serve(c); // may destroy c
        }
    }
    for (auto &kv : conns_)
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, kv.first, nullptr);
    conns_.clear();
    running_.store(false);
}

void
Server::acceptAll()
{
    while (true) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                warn("cmt_served: accept: %s", std::strerror(errno));
            return;
        }
        auto conn = std::make_unique<Connection>(fd);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            warn("cmt_served: epoll_ctl(add): %s",
                 std::strerror(errno));
            continue; // conn dtor closes the fd
        }
        conn->armed = EPOLLIN;
        conns_.emplace(fd, std::move(conn));
        connections_.fetch_add(1);
    }
}

void
Server::receive(Connection &c)
{
    if (c.stopRead)
        return;
    std::uint8_t buf[65536];
    while (c.inbuf.size() < kInputCapBytes) {
        const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
        if (r > 0) {
            bytesIn_.fetch_add(static_cast<std::uint64_t>(r));
            c.inbuf.insert(c.inbuf.end(), buf, buf + r);
            continue;
        }
        if (r < 0 && errno == EINTR)
            continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (r == 0)
            c.stopRead = true; // orderly EOF: answer what arrived
        else
            c.dead = true;
        return;
    }
}

void
Server::serve(Connection &c)
{
    // Alternate executing and sending while the peer takes replies
    // fast enough to lift the backlog bound again.
    bool more = true;
    while (more && !c.dead) {
        more = executeFrames(c);
        sendPending(c);
        more = more && c.outbuf.size() < kReplyBacklogBytes;
    }
    if (c.dead || (c.stopRead && c.outbuf.empty())) {
        destroyConnection(c.fd);
        return;
    }
    std::uint32_t events = 0;
    if (!c.stopRead && c.outbuf.size() < kReplyBacklogBytes)
        events |= EPOLLIN;
    if (!c.outbuf.empty())
        events |= EPOLLOUT;
    updateInterest(c, events);
}

bool
Server::executeFrames(Connection &c)
{
    const std::span<const std::uint8_t> in(c.inbuf);
    std::size_t off = 0;
    bool backlogged = false;
    while (true) {
        if (c.outbuf.size() >= kReplyBacklogBytes) {
            backlogged = true;
            break;
        }
        std::size_t bytes = 0;
        const FrameScan scan = scanFrame(in.subspan(off), &bytes);
        if (scan == FrameScan::kIncomplete)
            break;
        if (scan == FrameScan::kMalformed) {
            // The stream cannot be resynchronized: answer in order,
            // drop the rest, and never read from this peer again.
            appendReply(c.outbuf, Status::kError,
                        std::string("malformed frame (zero-length or "
                                    "over-limit)"));
            requests_.fetch_add(1);
            off = in.size();
            c.stopRead = true;
            break;
        }
        executeRequest(in[off + kHeaderBytes],
                       in.subspan(off + kHeaderBytes + 1,
                                  bytes - kHeaderBytes - 1),
                       c.outbuf);
        requests_.fetch_add(1);
        off += bytes;
    }
    c.inbuf.erase(c.inbuf.begin(),
                  c.inbuf.begin() + static_cast<std::ptrdiff_t>(off));
    return backlogged;
}

void
Server::updateInterest(Connection &c, std::uint32_t events)
{
    if (events == c.armed)
        return;
    epoll_event e{};
    e.events = events;
    e.data.fd = c.fd;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_MOD, c.fd, &e) == 0)
        c.armed = events;
}

void
Server::destroyConnection(int fd)
{
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    conns_.erase(fd); // ~Connection closes the fd
}

bool
Server::drained() const
{
    // A connection with no reply left to send has no complete frame
    // left to execute either (serve() runs until one or the other).
    for (const auto &kv : conns_)
        if (!kv.second->outbuf.empty())
            return false;
    return true;
}

void
Server::dropStalled()
{
    const auto now = std::chrono::steady_clock::now();
    std::vector<int> stalled;
    for (auto &kv : conns_) {
        Connection &c = *kv.second;
        if (c.outbuf.empty()) {
            c.stallMark = Connection::kNoMark;
        } else if (c.sentBytes != c.stallMark) {
            c.stallMark = c.sentBytes;
            c.stallSince = now;
        } else if (now - c.stallSince >= kStopStallLimit) {
            stalled.push_back(kv.first);
        }
    }
    for (const int fd : stalled) {
        warn("cmt_served: dropping a connection whose replies made no "
             "progress for %lld s",
             static_cast<long long>(kStopStallLimit.count()));
        destroyConnection(fd);
    }
}

void
Server::sendPending(Connection &c)
{
    std::size_t sent = 0;
    while (sent < c.outbuf.size()) {
        const ssize_t r =
            ::send(c.fd, c.outbuf.data() + sent, c.outbuf.size() - sent,
                   MSG_NOSIGNAL);
        if (r > 0) {
            sent += static_cast<std::size_t>(r);
            continue;
        }
        if (r < 0 && errno == EINTR)
            continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        c.dead = true; // the peer is gone; nothing left to deliver
        break;
    }
    bytesOut_.fetch_add(sent);
    c.sentBytes += sent;
    c.outbuf.erase(c.outbuf.begin(),
                   c.outbuf.begin() + static_cast<std::ptrdiff_t>(sent));
}

// ------------------------------------------------------------ requests

void
Server::executeRequest(std::uint8_t op,
                       std::span<const std::uint8_t> payload,
                       std::vector<std::uint8_t> &replies)
{
    WireReader r(payload);
    switch (static_cast<Op>(op)) {
    case Op::kPing:
        appendReply(replies, Status::kOk, kNoBytes);
        return;
    case Op::kRead: {
        std::uint32_t sid = 0;
        std::uint64_t addr = 0;
        std::uint32_t len = 0;
        if (!r.u32(&sid) || !r.u64(&addr) || !r.u32(&len) ||
            !r.done()) {
            appendReply(replies, Status::kError,
                        std::string("malformed read request"));
            return;
        }
        ServeStore *s = store(sid);
        if (s == nullptr) {
            appendReply(replies, Status::kError,
                        std::string("no such store"));
            return;
        }
        std::vector<std::uint8_t> data;
        std::string err;
        const StoreOutcome outcome = s->read(addr, len, &data, &err);
        replyStoreOutcome(outcome, data, err, replies);
        return;
    }
    case Op::kWrite: {
        std::uint32_t sid = 0;
        std::uint64_t addr = 0;
        std::uint32_t len = 0;
        std::span<const std::uint8_t> data;
        if (!r.u32(&sid) || !r.u64(&addr) || !r.u32(&len) ||
            !r.bytes(len, &data) || !r.done()) {
            appendReply(replies, Status::kError,
                        std::string("malformed write request"));
            return;
        }
        ServeStore *s = store(sid);
        if (s == nullptr) {
            appendReply(replies, Status::kError,
                        std::string("no such store"));
            return;
        }
        std::string err;
        const StoreOutcome outcome = s->write(addr, data, &err);
        replyStoreOutcome(outcome, kNoBytes, err, replies);
        return;
    }
    case Op::kVerify:
    case Op::kSync:
    case Op::kSave: {
        std::uint32_t sid = 0;
        if (!r.u32(&sid) || !r.done()) {
            appendReply(replies, Status::kError,
                        std::string("malformed request"));
            return;
        }
        ServeStore *s = store(sid);
        if (s == nullptr) {
            appendReply(replies, Status::kError,
                        std::string("no such store"));
            return;
        }
        if (static_cast<Op>(op) == Op::kVerify) {
            if (s->verifyAll()) {
                appendReply(replies, Status::kOk, kNoBytes);
            } else {
                verifyFailures_.fetch_add(1);
                appendReply(replies, Status::kCorrupt,
                            std::string("verification found "
                                        "inconsistent chunks"));
            }
        } else if (static_cast<Op>(op) == Op::kSync) {
            s->sync();
            appendReply(replies, Status::kOk, kNoBytes);
        } else {
            std::string err;
            if (s->saveState(&err))
                appendReply(replies, Status::kOk, kNoBytes);
            else
                appendReply(replies, Status::kError, err);
        }
        return;
    }
    case Op::kStats: {
        const std::vector<std::uint8_t> packed =
            packStats(statsSnapshot());
        appendReply(replies, Status::kOk,
                    std::span<const std::uint8_t>(packed));
        return;
    }
    case Op::kShutdown:
        appendReply(replies, Status::kOk, kNoBytes);
        // The reply is already queued ahead of the drain: it flushes
        // before the loop closes the connection.
        stopping_.store(true);
        return;
    default:
        appendReply(replies, Status::kError,
                    std::string("unknown opcode"));
        return;
    }
}

void
Server::replyStoreOutcome(StoreOutcome outcome,
                          std::span<const std::uint8_t> data,
                          const std::string &err,
                          std::vector<std::uint8_t> &replies)
{
    switch (outcome) {
    case StoreOutcome::kOk:
        appendReply(replies, Status::kOk, data);
        return;
    case StoreOutcome::kCorrupt:
        verifyFailures_.fetch_add(1);
        appendReply(replies, Status::kCorrupt, err);
        return;
    default:
        appendReply(replies, Status::kError, err);
        return;
    }
}

} // namespace cmt::serve
