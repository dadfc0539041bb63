/**
 * @file
 * Wire protocol of cmt_served, the verification-as-a-service daemon.
 *
 * Transport: a SOCK_STREAM unix-domain socket carrying length-prefixed
 * binary frames in both directions:
 *
 *   u32 LE body length | body
 *
 * A request body is `u8 opcode | payload`; a reply body is
 * `u8 status | payload`. Every request produces exactly one reply, in
 * request order per connection, so a client may pipeline freely. All
 * integers are little-endian; the frame length covers the body only
 * (opcode/status byte included) and must be in [1, kMaxFrameBytes] -
 * an oversized or zero-length frame is a protocol error that ends the
 * connection after one final error reply, because the stream cannot
 * be resynchronized once framing is in doubt.
 *
 * Request payloads (store ids are registration order, from 0):
 *
 *   kPing      -
 *   kRead      u32 store | u64 addr | u32 len
 *   kWrite     u32 store | u64 addr | u32 len | len bytes
 *   kVerify    u32 store
 *   kSync      u32 store
 *   kSave      u32 store
 *   kStats     -
 *   kShutdown  -
 *
 * Reply payloads: kRead returns the verified bytes under kOk; kStats
 * returns ServerStats as seven u64s; error and corrupt replies carry
 * a human-readable message. kCorrupt is reserved for integrity
 * verdicts (a tampered chunk, a failed verify pass) so clients can
 * tell an attack from a malformed request.
 *
 * The helpers here are shared by the server, the client library, and
 * the protocol tests, so both sides always agree byte-for-byte.
 */

#ifndef CMT_SERVE_PROTOCOL_H
#define CMT_SERVE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cmt::serve
{

/** Upper bound on one frame body; bounds server buffering per frame. */
constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/** Bytes of length prefix ahead of every body. */
constexpr std::size_t kHeaderBytes = 4;

/** Request opcodes. 0 is reserved: no request uses it, and the
 *  server answers it as an unknown opcode. */
enum class Op : std::uint8_t
{
    kPing = 1,
    kRead = 2,
    kWrite = 3,
    kVerify = 4,
    kSync = 5,
    kSave = 6,
    kStats = 7,
    kShutdown = 8,
};

/** Reply status codes. */
enum class Status : std::uint8_t
{
    kOk = 0,
    /** Malformed request, unknown store, I/O failure. */
    kError = 1,
    /** Integrity verification failed: tampering detected. */
    kCorrupt = 2,
};

/** Server-wide counters returned by kStats (seven u64s, this order). */
struct ServerStats
{
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t readOps = 0;
    std::uint64_t writeOps = 0;
    std::uint64_t verifyFailures = 0;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
};

// ---------------------------------------------------------------- encode

inline void
appendU8(std::vector<std::uint8_t> &out, std::uint8_t v)
{
    out.push_back(v);
}

inline void
appendU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void
appendU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline std::uint32_t
readU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

inline std::uint64_t
readU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/**
 * Frame a request body: length prefix, opcode, payload. The result is
 * ready to write to the socket verbatim.
 */
inline std::vector<std::uint8_t>
frameRequest(Op op, std::span<const std::uint8_t> payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderBytes + 1 + payload.size());
    appendU32(out, static_cast<std::uint32_t>(1 + payload.size()));
    appendU8(out, static_cast<std::uint8_t>(op));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

/** Append a framed reply (length, status, payload) to @p out. */
inline void
appendReply(std::vector<std::uint8_t> &out, Status status,
            std::span<const std::uint8_t> payload)
{
    appendU32(out, static_cast<std::uint32_t>(1 + payload.size()));
    appendU8(out, static_cast<std::uint8_t>(status));
    out.insert(out.end(), payload.begin(), payload.end());
}

/** Append a framed error/corrupt reply carrying @p message. */
inline void
appendReply(std::vector<std::uint8_t> &out, Status status,
            const std::string &message)
{
    appendReply(out, status,
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t *>(
                        message.data()),
                    message.size()));
}

// ---------------------------------------------------------------- decode

/**
 * Bounds-checked cursor over a received payload. Every accessor
 * returns false (and poisons the reader) past the end, so parse code
 * is a flat sequence of `if (!r.u32(&x)) ...` checks with no pointer
 * arithmetic at the call site. A fully-consumed payload must end with
 * done() == true - trailing bytes are a malformed request.
 */
class WireReader
{
  public:
    explicit WireReader(std::span<const std::uint8_t> data)
        : data_(data)
    {}

    bool
    u8(std::uint8_t *out)
    {
        if (!take(1))
            return false;
        *out = data_[pos_ - 1];
        return true;
    }

    bool
    u32(std::uint32_t *out)
    {
        if (!take(4))
            return false;
        *out = readU32(data_.data() + pos_ - 4);
        return true;
    }

    bool
    u64(std::uint64_t *out)
    {
        if (!take(8))
            return false;
        *out = readU64(data_.data() + pos_ - 8);
        return true;
    }

    /** View of the next @p n bytes (valid while the buffer lives). */
    bool
    bytes(std::size_t n, std::span<const std::uint8_t> *out)
    {
        if (!take(n))
            return false;
        *out = data_.subspan(pos_ - n, n);
        return true;
    }

    /** All remaining bytes. */
    std::span<const std::uint8_t>
    rest()
    {
        std::span<const std::uint8_t> r = data_.subspan(pos_);
        pos_ = data_.size();
        return r;
    }

    /** True when every byte was consumed and nothing over-read. */
    bool done() const { return ok_ && pos_ == data_.size(); }

    bool ok() const { return ok_; }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || data_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** Serialize @p s in the kStats reply layout. */
inline std::vector<std::uint8_t>
packStats(const ServerStats &s)
{
    std::vector<std::uint8_t> out;
    out.reserve(7 * 8);
    appendU64(out, s.connections);
    appendU64(out, s.requests);
    appendU64(out, s.readOps);
    appendU64(out, s.writeOps);
    appendU64(out, s.verifyFailures);
    appendU64(out, s.bytesIn);
    appendU64(out, s.bytesOut);
    return out;
}

/** Parse a kStats reply payload; false on a short/oversized buffer. */
inline bool
unpackStats(std::span<const std::uint8_t> payload, ServerStats *out)
{
    WireReader r(payload);
    if (!r.u64(&out->connections) || !r.u64(&out->requests) ||
        !r.u64(&out->readOps) || !r.u64(&out->writeOps) ||
        !r.u64(&out->verifyFailures) || !r.u64(&out->bytesIn) ||
        !r.u64(&out->bytesOut))
        return false;
    return r.done();
}

} // namespace cmt::serve

#endif // CMT_SERVE_PROTOCOL_H
