#include "gen/generator.hpp"

#include <algorithm>
#include <atomic>

#include "support/expect.hpp"
#include "support/thread_pool.hpp"

namespace ld::gen {

ChunkBuffer::ChunkBuffer(EdgeSink& sink, std::size_t capacity)
    : sink_(sink), capacity_(capacity) {
    support::expects(capacity >= 1, "ChunkBuffer: capacity must be >= 1");
    buffer_.reserve(capacity);
}

void ChunkBuffer::flush() {
    if (buffer_.empty()) return;
    sink_.accept(buffer_);
    edges_ += buffer_.size();
    ++chunks_;
    buffer_.clear();
}

StreamingGenerator::StreamingGenerator(GeneratorConfig config)
    : config_(std::move(config)) {
    config_.validate();
}

PassTotals StreamingGenerator::generate(EdgeSink& sink) {
    prepare();
    const std::size_t cells = cell_count();
    const ShardSpec shard = config_.shard;
    // This shard owns cells shard.index, shard.index + count, ... — the
    // same index % count == shard partition the sweep engine uses.
    const std::size_t owned =
        cells > shard.index ? (cells - shard.index - 1) / shard.count + 1 : 0;

    std::size_t threads = config_.threads == 0
                              ? support::ThreadPool::global().worker_count()
                              : config_.threads;
    if (threads > owned) threads = owned == 0 ? 1 : owned;

    // Workers claim runs of consecutive owned cells from one cursor until
    // none are left, so a few heavy cells (Chung–Lu's high-weight rows)
    // cannot pin one worker.  About 64 claims per worker even out uneven
    // cells while keeping the shared cursor cold; families with few cells
    // (hyperbolic) get one-cell runs.  Which worker emits a cell only
    // affects emission order, which no sink's final CSR depends on.
    const std::size_t run = std::max<std::size_t>(1, owned / (64 * threads));
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::uint64_t> edges{0};
    std::atomic<std::uint64_t> chunks{0};
    const auto drain = [&] {
        ChunkBuffer buffer(sink, config_.chunk_edges);
        for (std::size_t begin = cursor.fetch_add(run); begin < owned;
             begin = cursor.fetch_add(run)) {
            const std::size_t end = std::min(owned, begin + run);
            for (std::size_t i = begin; i < end; ++i) {
                emit_cell(shard.index + i * shard.count, buffer);
            }
        }
        buffer.flush();
        edges += buffer.edges_emitted();
        chunks += buffer.chunks_flushed();
    };
    if (threads <= 1) {
        drain();
    } else {
        support::TaskGroup group(support::ThreadPool::global());
        for (std::size_t w = 0; w < threads; ++w) group.submit(drain);
        group.wait();
    }
    return PassTotals{edges.load(), chunks.load()};
}

}  // namespace ld::gen
