/**
 * @file
 * Set-associative cache with true LRU replacement.  The simulator models
 * latency, not data, so a cache tracks only tags; accesses report hit or
 * miss and allocate on miss.
 */

#ifndef FO4_MEM_CACHE_HH
#define FO4_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "util/stats.hh"
#include "util/status.hh"

namespace fo4::mem
{

/** Geometry of one cache level. */
struct CacheParams
{
    std::uint64_t capacityBytes = 64 * 1024;
    std::uint32_t lineBytes = 64;
    std::uint32_t associativity = 2;

    std::uint64_t sets() const
    {
        return capacityBytes / lineBytes / associativity;
    }

    /** Check the geometry rules, reporting every violation at once. */
    util::Status validate() const;
};

/** Tag-only set-associative cache. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up an address; on miss, allocate the line (evicting LRU).
     * @param write marks the line dirty on hit/allocate
     * @return true on hit
     */
    bool access(std::uint64_t addr, bool write);

    /** Look up without any state change (for tests/inspection). */
    bool probe(std::uint64_t addr) const;

    /** Invalidate everything. */
    void flush();

    const CacheParams &params() const { return prm; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    double
    missRate() const
    {
        const double total =
            static_cast<double>(hits_.value() + misses_.value());
        return total > 0 ? misses_.value() / total : 0.0;
    }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0; // LRU timestamp
    };

    std::uint64_t lineAddr(std::uint64_t addr) const;
    std::uint64_t setIndex(std::uint64_t addr) const;

    CacheParams prm;
    unsigned lineShift = 0;    // log2(lineBytes)
    std::uint64_t setMask = 0; // sets - 1
    std::vector<Line> lines; // sets * associativity, set-major
    std::uint64_t useClock = 0;
    util::Counter hits_;
    util::Counter misses_;
};

} // namespace fo4::mem

#endif // FO4_MEM_CACHE_HH
