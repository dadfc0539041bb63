/**
 * @file
 * Certified execution (Section 4.1): run a program on a secure
 * processor with integrity-verified memory and sign the result with a
 * key unique to the (processor, program) pair.
 *
 * Substitution note (see DESIGN.md): the paper uses a public-key pair
 * whose public half the manufacturer publishes. We implement the same
 * protocol flow with symmetric primitives - the per-program signing
 * key is HMAC-derived from the processor secret, and the "published
 * verification key" is that same derived key handed to the verifier
 * out of band. Every message and check matches the paper's protocol;
 * only the algebra of the signature differs.
 */

#ifndef CMT_VERIFY_CERTIFIED_H
#define CMT_VERIFY_CERTIFIED_H

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "crypto/md5.h"
#include "crypto/xtea.h"
#include "mem/storage.h"
#include "verify/merkle_memory.h"

namespace cmt
{

/** A signed computation result, as sent back to the requester. */
struct Certificate
{
    /** Digest identifying the program that produced the result. */
    Hash128 programDigest;
    /** The program's declared output bytes. */
    std::vector<std::uint8_t> result;
    /** Signature by the processor-program key over (digest, result). */
    Hash128 signature;
};

/**
 * A tamper-free processor with a manufacturer-installed secret,
 * running programs over untrusted external memory.
 */
class SecureProcessor
{
  public:
    /** A program: arbitrary code touching verified memory. */
    using Program =
        std::function<std::vector<std::uint8_t>(MerkleMemory &)>;

    explicit SecureProcessor(const Key128 &secret) : secret_(secret) {}

    /**
     * Execute @p body over integrity-verified memory built on
     * @p untrusted and sign the result with the processor-program key
     * derived from @p program_image.
     *
     * @return the certificate, or std::nullopt if memory tampering
     *         was detected during execution (the paper's "destruction
     *         of the program's key": no valid signature can exist).
     */
    std::optional<Certificate>
    runCertified(std::span<const std::uint8_t> program_image,
                 const Program &body, Storage &untrusted,
                 const MerkleConfig &config) const;

    /**
     * The verification key for @p program_image - what the paper's
     * manufacturer would publish as the public half.
     */
    Key128
    verificationKeyFor(std::span<const std::uint8_t> program_image) const;

    /** Requester-side check of a received certificate. */
    [[nodiscard]] static bool
    verifyCertificate(const Key128 &verification_key,
                      const Certificate &cert);

  private:
    Key128 secret_;
};

} // namespace cmt

#endif // CMT_VERIFY_CERTIFIED_H
