/**
 * @file
 * Blocking client for the cmt_served wire protocol.
 *
 * One Client is one connection: blocking unix-socket I/O, one
 * outstanding request at a time (request() writes a frame and reads
 * exactly one reply). It is deliberately not thread-safe - the load
 * generator gives every worker thread its own Client, which also
 * matches how the daemon accounts per-connection ordering.
 *
 * The raw frame hooks (sendRaw / recvReply) exist for the protocol
 * edge-case tests: torn frames, oversized lengths, and mid-request
 * disconnects are built from exactly the byte sequences a buggy or
 * hostile client would produce.
 */

#ifndef CMT_SERVE_CLIENT_H
#define CMT_SERVE_CLIENT_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace cmt::serve
{

/** Result of one client call (wire status + transport failures).
 *  [[nodiscard]]: a dropped kCorrupt is a dropped integrity verdict. */
enum class [[nodiscard]] CallResult
{
    kOk,
    /** Server replied kError (malformed request, I/O failure...). */
    kError,
    /** Server replied kCorrupt: integrity verification failed. */
    kCorrupt,
    /** Transport failed (connection refused, reset, torn reply);
     *  the client is disconnected afterwards. */
    kLost,
};

/** Blocking single-connection protocol client. */
class Client
{
  public:
    Client() = default;
    ~Client();
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to a daemon socket; false with @p err on failure. */
    [[nodiscard]] bool connectTo(const std::string &socket_path,
                                 std::string *err);

    [[nodiscard]] bool connected() const { return fd_ >= 0; }
    void disconnect();

    /** Round-trip a kPing. */
    [[nodiscard]] bool ping(std::string *err);

    /** Verified read of [addr, addr+len) from @p store_id. */
    CallResult readBlock(std::uint32_t store_id, std::uint64_t addr,
                         std::uint32_t len,
                         std::vector<std::uint8_t> *out,
                         std::string *err);

    /** Tree-maintaining write. */
    CallResult writeBlock(std::uint32_t store_id, std::uint64_t addr,
                          std::span<const std::uint8_t> data,
                          std::string *err);

    /** Whole-tree verification pass on the server.
     *  @p clean reports the verdict when the call itself succeeds. */
    [[nodiscard]] bool verifyStore(std::uint32_t store_id, bool *clean,
                                   std::string *err);

    /** Flush the store's dirty cached chunks into (model) RAM. */
    [[nodiscard]] bool syncStore(std::uint32_t store_id, std::string *err);

    /** Persist the store through the crash-safe save path. */
    [[nodiscard]] bool saveStore(std::uint32_t store_id, std::string *err);

    /** Fetch server-wide counters. */
    [[nodiscard]] bool fetchStats(ServerStats *out, std::string *err);

    /** Ask the daemon to shut down gracefully. */
    [[nodiscard]] bool shutdownServer(std::string *err);

    // --- raw access for protocol tests -------------------------------

    /** Write arbitrary bytes to the socket (torn/garbage frames). */
    [[nodiscard]] bool sendRaw(std::span<const std::uint8_t> bytes,
                               std::string *err);

    /** Read exactly one reply frame. */
    [[nodiscard]] bool recvReply(Status *status,
                                 std::vector<std::uint8_t> *payload,
                                 std::string *err);

    /** Frame + send a request, then read its reply. */
    [[nodiscard]] bool request(Op op,
                               std::span<const std::uint8_t> payload,
                               Status *status,
                               std::vector<std::uint8_t> *reply,
                               std::string *err);

  private:
    [[nodiscard]] bool sendAll(const std::uint8_t *data, std::size_t len,
                               std::string *err);
    [[nodiscard]] bool recvAll(std::uint8_t *data, std::size_t len,
                               std::string *err);
    /** Copy a failed reply's message into @p err. */
    static void describeFailure(const std::vector<std::uint8_t> &reply,
                                std::string *err);
    /** Map a non-kOk reply onto CallResult + message. */
    static CallResult failureOf(Status status,
                                const std::vector<std::uint8_t> &reply,
                                std::string *err);

    int fd_ = -1;
};

} // namespace cmt::serve

#endif // CMT_SERVE_CLIENT_H
