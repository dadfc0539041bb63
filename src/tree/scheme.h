/**
 * @file
 * The paper's verification-scheme vocabulary, shared by every layer
 * that selects or reports a scheme (the timing L2 complex, the
 * functional MerkleMemory library, configs, benches, JSON).
 */

#ifndef CMT_TREE_SCHEME_H
#define CMT_TREE_SCHEME_H

namespace cmt
{

/** Which verification scheme an integrity-checked memory runs. */
enum class Scheme
{
    kBase,        ///< no verification (baseline)
    kNaive,       ///< uncached hashes; full ancestor path per miss
    kCached,      ///< hashes cached in L2 (c when chunk==block, else m)
    kIncremental, ///< m with incremental XOR-MACs + 1-bit timestamps
};

/** Human-readable scheme name for reports. */
const char *schemeName(Scheme scheme);

} // namespace cmt

#endif // CMT_TREE_SCHEME_H
