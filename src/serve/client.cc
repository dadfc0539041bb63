#include "serve/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "serve/protocol.h"

namespace cmt::serve
{

Client::~Client()
{
    disconnect();
}

void
Client::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Client::connectTo(const std::string &socket_path, std::string *err)
{
    disconnect();
    sockaddr_un addr{};
    if (socket_path.empty() ||
        socket_path.size() >= sizeof(addr.sun_path)) {
        *err = "socket path empty or longer than the kernel sun_path "
               "limit";
        return false;
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
        *err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
    if (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        *err = "connect to '" + socket_path +
               "': " + std::strerror(errno);
        disconnect();
        return false;
    }
    return true;
}

bool
Client::sendAll(const std::uint8_t *data, std::size_t len,
                std::string *err)
{
    if (fd_ < 0) {
        *err = "not connected";
        return false;
    }
    std::size_t off = 0;
    while (off < len) {
        const ssize_t r =
            ::send(fd_, data + off, len - off, MSG_NOSIGNAL);
        if (r > 0) {
            off += static_cast<std::size_t>(r);
            continue;
        }
        if (r < 0 && errno == EINTR)
            continue;
        *err = std::string("send: ") + std::strerror(errno);
        disconnect();
        return false;
    }
    return true;
}

bool
Client::recvAll(std::uint8_t *data, std::size_t len, std::string *err)
{
    if (fd_ < 0) {
        *err = "not connected";
        return false;
    }
    std::size_t off = 0;
    while (off < len) {
        const ssize_t r = ::recv(fd_, data + off, len - off, 0);
        if (r > 0) {
            off += static_cast<std::size_t>(r);
            continue;
        }
        if (r < 0 && errno == EINTR)
            continue;
        *err = r == 0 ? std::string("connection closed by server")
                      : std::string("recv: ") + std::strerror(errno);
        disconnect();
        return false;
    }
    return true;
}

bool
Client::sendRaw(std::span<const std::uint8_t> bytes, std::string *err)
{
    return sendAll(bytes.data(), bytes.size(), err);
}

bool
Client::recvReply(Status *status, std::vector<std::uint8_t> *payload,
                  std::string *err)
{
    std::uint8_t header[kHeaderBytes];
    if (!recvAll(header, sizeof header, err))
        return false;
    const std::uint32_t len = readU32(header);
    if (len == 0 || len > kMaxFrameBytes) {
        *err = "malformed reply frame from server";
        disconnect();
        return false;
    }
    std::vector<std::uint8_t> body(len);
    if (!recvAll(body.data(), body.size(), err))
        return false;
    *status = static_cast<Status>(body[0]);
    payload->assign(body.begin() + 1, body.end());
    return true;
}

bool
Client::request(Op op, std::span<const std::uint8_t> payload,
                Status *status, std::vector<std::uint8_t> *reply,
                std::string *err)
{
    const std::vector<std::uint8_t> frame = frameRequest(op, payload);
    if (!sendAll(frame.data(), frame.size(), err))
        return false;
    return recvReply(status, reply, err);
}

void
Client::describeFailure(const std::vector<std::uint8_t> &reply,
                        std::string *err)
{
    err->assign(reply.begin(), reply.end());
    if (err->empty())
        *err = "request failed";
}

CallResult
Client::failureOf(Status status,
                  const std::vector<std::uint8_t> &reply,
                  std::string *err)
{
    describeFailure(reply, err);
    return status == Status::kCorrupt ? CallResult::kCorrupt
                                      : CallResult::kError;
}

bool
Client::ping(std::string *err)
{
    Status status = Status::kError;
    std::vector<std::uint8_t> reply;
    if (!request(Op::kPing, {}, &status, &reply, err))
        return false;
    if (status != Status::kOk) {
        describeFailure(reply, err);
        return false;
    }
    return true;
}

CallResult
Client::readBlock(std::uint32_t store_id, std::uint64_t addr,
                  std::uint32_t len, std::vector<std::uint8_t> *out,
                  std::string *err)
{
    std::vector<std::uint8_t> payload;
    appendU32(payload, store_id);
    appendU64(payload, addr);
    appendU32(payload, len);
    Status status = Status::kError;
    std::vector<std::uint8_t> reply;
    if (!request(Op::kRead, payload, &status, &reply, err))
        return CallResult::kLost;
    if (status != Status::kOk)
        return failureOf(status, reply, err);
    *out = std::move(reply);
    return CallResult::kOk;
}

CallResult
Client::writeBlock(std::uint32_t store_id, std::uint64_t addr,
                   std::span<const std::uint8_t> data,
                   std::string *err)
{
    std::vector<std::uint8_t> payload;
    payload.reserve(16 + data.size());
    appendU32(payload, store_id);
    appendU64(payload, addr);
    appendU32(payload, static_cast<std::uint32_t>(data.size()));
    payload.insert(payload.end(), data.begin(), data.end());
    Status status = Status::kError;
    std::vector<std::uint8_t> reply;
    if (!request(Op::kWrite, payload, &status, &reply, err))
        return CallResult::kLost;
    if (status != Status::kOk)
        return failureOf(status, reply, err);
    return CallResult::kOk;
}

bool
Client::verifyStore(std::uint32_t store_id, bool *clean,
                    std::string *err)
{
    std::vector<std::uint8_t> payload;
    appendU32(payload, store_id);
    Status status = Status::kError;
    std::vector<std::uint8_t> reply;
    if (!request(Op::kVerify, payload, &status, &reply, err))
        return false;
    if (status == Status::kOk) {
        *clean = true;
        return true;
    }
    if (status == Status::kCorrupt) {
        *clean = false;
        return true; // the call worked; the verdict is "tampered"
    }
    describeFailure(reply, err);
    return false;
}

bool
Client::syncStore(std::uint32_t store_id, std::string *err)
{
    std::vector<std::uint8_t> payload;
    appendU32(payload, store_id);
    Status status = Status::kError;
    std::vector<std::uint8_t> reply;
    if (!request(Op::kSync, payload, &status, &reply, err))
        return false;
    if (status != Status::kOk) {
        describeFailure(reply, err);
        return false;
    }
    return true;
}

bool
Client::saveStore(std::uint32_t store_id, std::string *err)
{
    std::vector<std::uint8_t> payload;
    appendU32(payload, store_id);
    Status status = Status::kError;
    std::vector<std::uint8_t> reply;
    if (!request(Op::kSave, payload, &status, &reply, err))
        return false;
    if (status != Status::kOk) {
        describeFailure(reply, err);
        return false;
    }
    return true;
}

bool
Client::fetchStats(ServerStats *out, std::string *err)
{
    Status status = Status::kError;
    std::vector<std::uint8_t> reply;
    if (!request(Op::kStats, {}, &status, &reply, err))
        return false;
    if (status != Status::kOk) {
        describeFailure(reply, err);
        return false;
    }
    if (!unpackStats(reply, out)) {
        *err = "short kStats reply";
        return false;
    }
    return true;
}

bool
Client::shutdownServer(std::string *err)
{
    Status status = Status::kError;
    std::vector<std::uint8_t> reply;
    if (!request(Op::kShutdown, {}, &status, &reply, err))
        return false;
    if (status != Status::kOk) {
        describeFailure(reply, err);
        return false;
    }
    return true;
}

} // namespace cmt::serve
