#include "trace/decoded_trace.hh"

#include "trace/generator.hh"
#include "trace/recorded_trace.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/status.hh"

namespace fo4::trace
{

DecodedTrace::DecodedTrace(std::unique_ptr<TraceSource> source,
                           std::string key)
    : name(std::move(key)), base(std::move(source)),
      chunks(std::make_unique<std::unique_ptr<TraceRecord[]>[]>(maxChunks))
{
    FO4_ASSERT(base != nullptr, "decoded trace needs a base source");
    base->reset();
}

const TraceRecord &
DecodedTrace::materialize(std::uint64_t i)
{
    std::lock_guard<std::mutex> guard(growLock);
    std::uint64_t have = produced.load(std::memory_order_relaxed);
    if (i < have)
        return chunks[i >> chunkShift][i & chunkMask];

    if ((i >> chunkShift) >= maxChunks) {
        throw util::TraceError(
            util::ErrorCode::TraceCorrupt,
            util::strprintf("decoded trace '%s' grew past %llu records",
                            name.c_str(),
                            static_cast<unsigned long long>(
                                maxChunks << chunkShift)));
    }

    // Decode whole chunks so concurrent cells of a column rarely
    // contend: the first cell to reach a chunk pays for all of them.
    const std::uint64_t target = ((i >> chunkShift) + 1) << chunkShift;
    const std::uint64_t start = have;
    while (have < target) {
        auto &chunk = chunks[have >> chunkShift];
        if (!chunk)
            chunk = std::make_unique<TraceRecord[]>(chunkMask + 1);
        chunk[have & chunkMask] = packTraceRecord(base->next());
        ++have;
    }
    static auto &decoded =
        util::MetricsRegistry::global().counter("trace.decoded.records");
    decoded.add(have - start);
    produced.store(have, std::memory_order_release);
    return chunks[i >> chunkShift][i & chunkMask];
}

DecodedTraceRegistry &
DecodedTraceRegistry::global()
{
    static DecodedTraceRegistry registry;
    return registry;
}

std::unique_ptr<DecodedTraceView>
DecodedTraceRegistry::viewFor(
    const std::string &key,
    const std::function<std::unique_ptr<TraceSource>()> &make)
{
    static auto &hits =
        util::MetricsRegistry::global().counter("trace.decoded.hits");
    static auto &misses =
        util::MetricsRegistry::global().counter("trace.decoded.misses");
    {
        std::lock_guard<std::mutex> guard(lock);
        const auto it = traces.find(key);
        if (it != traces.end()) {
            hits.inc();
            return std::make_unique<DecodedTraceView>(it->second);
        }
    }
    // Construct outside the lock: building a source may read a file or
    // throw, and neither should stall other benchmarks' lookups.  A
    // failure propagates uncached; a racing duplicate build loses the
    // insert and is discarded.
    auto trace = std::make_shared<DecodedTrace>(make(), key);
    std::lock_guard<std::mutex> guard(lock);
    const auto [it, inserted] = traces.emplace(key, std::move(trace));
    if (inserted)
        misses.inc();
    else
        hits.inc();
    return std::make_unique<DecodedTraceView>(it->second);
}

std::unique_ptr<DecodedTraceView>
DecodedTraceRegistry::viewForProfile(const BenchmarkProfile &profile)
{
    return viewFor("profile:" + profile.identityKey(), [&profile] {
        return std::unique_ptr<TraceSource>(
            std::make_unique<SyntheticTraceGenerator>(profile));
    });
}

std::unique_ptr<DecodedTraceView>
DecodedTraceRegistry::viewForFile(const std::string &path)
{
    return viewFor("file:" + path, [&path] {
        return std::unique_ptr<TraceSource>(
            std::make_unique<RecordedTrace>(path));
    });
}

std::size_t
DecodedTraceRegistry::size() const
{
    std::lock_guard<std::mutex> guard(lock);
    return traces.size();
}

void
DecodedTraceRegistry::clear()
{
    std::lock_guard<std::mutex> guard(lock);
    traces.clear();
}

} // namespace fo4::trace
