/**
 * @file
 * Structured, seed-deterministic generation of differential fuzz
 * cases: a config point (tree geometry, trusted-cache size, shard
 * count), an access trace (loads/stores/flush/clear-cache), and an
 * Adversary action schedule (bit flips, authenticator tampering,
 * chunk splicing, capture/replay) injected mid-run.
 *
 * A FuzzCase is a pure value: the same seed always generates the same
 * case, and every case round-trips through a versioned JSON document
 * so a failure found by tools/cmt_fuzz can be committed to
 * tests/fuzz/corpus/ and replayed forever. All randomness flows from
 * the explicitly seeded cmt::Rng - no wall clock, no pid (enforced by
 * the cmt_analyze nondeterminism rule).
 */

#ifndef CMT_FUZZ_TRACE_GEN_H
#define CMT_FUZZ_TRACE_GEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "support/json.h"

namespace cmt::fuzz
{

/** One step of a fuzz case: a memory access or an adversary move. */
enum class OpKind
{
    kLoad,       ///< verified load of [addr, addr+len)
    kStore,      ///< tree-maintaining store of data at addr
    kFlush,      ///< write back all dirty cached chunks
    kClearCache, ///< flush + drop all cached trust
    kFlip,       ///< adversary: flip one bit of a data byte in RAM
    kTamperTree, ///< adversary: flip one bit of a chunk's authenticator
    kSplice,     ///< adversary: copy chunk `from`'s RAM image over `to`
    kCapture,    ///< adversary: snapshot a data chunk's RAM image
    kRestore,    ///< adversary: replay a previously captured snapshot
};

/** Stable wire name of @p kind ("load", "flip", ...). */
const char *opName(OpKind kind);

/** Inverse of opName(). @return false for unknown names. */
bool opFromName(const std::string &name, OpKind *out);

/** True for the adversary-controlled kinds (kFlip..kRestore). */
bool isAdversaryOp(OpKind kind);

/**
 * One trace step. Field use by kind:
 *  - kLoad:       addr, len            (data address space)
 *  - kStore:      addr, data
 *  - kFlush / kClearCache: (none)
 *  - kFlip:       addr, bit            (bit 0..7 of the data byte)
 *  - kTamperTree: chunk, byte, bit     (bit of the 16-byte slot that
 *                                       authenticates data chunk
 *                                       `chunk`, as stored in its
 *                                       parent hash chunk in RAM)
 *  - kSplice:     from, to             (data chunk indices)
 *  - kCapture:    id, chunk
 *  - kRestore:    id
 */
struct FuzzOp
{
    OpKind kind = OpKind::kLoad;
    std::uint64_t addr = 0;
    std::uint64_t len = 0;
    std::uint64_t chunk = 0;
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    std::uint64_t id = 0;
    unsigned byte = 0;
    unsigned bit = 0;
    std::vector<std::uint8_t> data;
};

/**
 * The config point every target of one differential run shares.
 * Geometry is required to be *exactly* perfect per shard:
 * protectedSize / shards == arity^levels * chunkSize with levels >= 2
 * (so every data chunk's authenticator lives in a RAM-resident parent
 * and kTamperTree is always meaningful). validateCase() enforces it.
 */
struct FuzzConfig
{
    std::uint64_t chunkSize = 64;
    std::uint64_t blockSize = 64;
    std::uint64_t protectedSize = 4096;
    unsigned shards = 1;
    /** Trusted-cache capacity of the cached/incremental targets. */
    std::uint64_t cacheChunks = 16;

    std::uint64_t arity() const { return chunkSize / 16; }
    std::uint64_t dataChunks() const { return protectedSize / chunkSize; }
};

/** A complete replayable differential case. */
struct FuzzCase
{
    FuzzConfig config;
    std::vector<FuzzOp> ops;
    /** Generator seed (0 for hand-written corpus cases). */
    std::uint64_t seed = 0;
    /** Corpus contract: must the oracle detect tampering? */
    bool expectDetection = false;
    /** Free-form provenance note carried through JSON. */
    std::string note;

    /** Serialize as a cmt-fuzz-case-v1 document. */
    Json toJson() const;
    std::string dump() const;

    /** Parse + validate a cmt-fuzz-case-v1 document. */
    static bool fromJson(const Json &doc, FuzzCase *out,
                         std::string *error);
    static bool parse(const std::string &text, FuzzCase *out,
                      std::string *error);
};

/**
 * Structural validation: geometry constraints (powers of two, exact
 * perfect per-shard trees, XOR-MAC block-count bound, cache capacity
 * floor) and per-op bounds. @return false with a message in @p error.
 */
bool validateCase(const FuzzCase &c, std::string *error);

/**
 * Deterministically generate case number @p seed: config point, trace
 * and adversary schedule are all pure functions of the seed. Roughly
 * 70% of cases carry at least one adversary action.
 */
FuzzCase generateCase(std::uint64_t seed);

} // namespace cmt::fuzz

#endif // CMT_FUZZ_TRACE_GEN_H
