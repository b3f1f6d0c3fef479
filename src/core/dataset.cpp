#include "ptsbe/core/dataset.hpp"

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <type_traits>

#include "ptsbe/common/error.hpp"
#include "ptsbe/core/dataset_reader.hpp"

namespace ptsbe::dataset {

static_assert(std::endian::native == std::endian::little,
              "the block codec copies fields in host byte order; the format "
              "is little-endian");
// Branch lists and records travel as one bulk copy each, which needs their
// in-memory layout to be the on-disk one.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));
static_assert(std::is_trivially_copyable_v<BranchChoice> &&
              sizeof(BranchChoice) == 2 * sizeof(std::uint64_t) &&
              offsetof(BranchChoice, site) == 0 &&
              offsetof(BranchChoice, branch) == sizeof(std::uint64_t));

namespace {

/// spec_index, nominal, realized, shots, num_branches.
constexpr std::size_t kBlockHeadWords = 5;

/// Byte offset of the header's batch-count field (after magic + version).
constexpr std::streamoff kBatchCountOffset =
    sizeof(kFormatMagic) + sizeof(kFormatVersion);

}  // namespace

std::uint64_t block_bytes(const be::TrajectoryBatch& batch) {
  return (kBlockHeadWords + 1) * sizeof(std::uint64_t) +
         batch.spec.branches.size() * sizeof(BranchChoice) +
         batch.records.size() * sizeof(std::uint64_t);
}

void encode_block(const be::TrajectoryBatch& batch, const BlockWriter& write) {
  std::uint64_t head[kBlockHeadWords] = {batch.spec_index, 0, 0,
                                         batch.spec.shots,
                                         batch.spec.branches.size()};
  std::memcpy(&head[1], &batch.spec.nominal_probability, sizeof(double));
  std::memcpy(&head[2], &batch.realized_probability, sizeof(double));
  write(head, sizeof head);
  if (!batch.spec.branches.empty())
    write(batch.spec.branches.data(),
          batch.spec.branches.size() * sizeof(BranchChoice));
  const std::uint64_t num_records = batch.records.size();
  write(&num_records, sizeof num_records);
  if (num_records != 0)
    write(batch.records.data(), num_records * sizeof(std::uint64_t));
}

void ByteSource::throw_truncated() const {
  throw invariant_error("truncated dataset file '" + name_ + "'");
}

void MemorySource::copy(std::uint64_t offset, void* dst, std::size_t n) {
  std::memcpy(dst, bytes_.data() + offset, n);
}

std::uint64_t decode_block(ByteSource& source, std::uint64_t offset,
                           be::TrajectoryBatch* out) {
  std::uint64_t head[kBlockHeadWords] = {};
  source.read_at(offset, head, sizeof head);
  const std::uint64_t branches_at = offset + sizeof head;
  // Hostile-length guards: each count is bounded by the bytes that remain
  // *before* any allocation.
  const std::uint64_t num_branches = head[4];
  if (num_branches > (source.size() - branches_at) / sizeof(BranchChoice))
    source.throw_truncated();
  const std::uint64_t branch_bytes = num_branches * sizeof(BranchChoice);
  std::uint64_t num_records = 0;
  source.read_at(branches_at + branch_bytes, &num_records, sizeof num_records);
  const std::uint64_t records_at =
      branches_at + branch_bytes + sizeof num_records;
  if (num_records > (source.size() - records_at) / sizeof(std::uint64_t))
    source.throw_truncated();
  const std::uint64_t record_bytes = num_records * sizeof(std::uint64_t);
  if (out != nullptr) {
    out->spec_index = static_cast<std::size_t>(head[0]);
    std::memcpy(&out->spec.nominal_probability, &head[1], sizeof(double));
    std::memcpy(&out->realized_probability, &head[2], sizeof(double));
    out->spec.shots = head[3];
    out->spec.branches.resize(num_branches);
    source.read_at(branches_at, out->spec.branches.data(), branch_bytes);
    out->records.resize(num_records);
    source.read_at(records_at, out->records.data(), record_bytes);
  }
  return records_at + record_bytes;
}

void write_csv(const std::string& path, const be::Result& result) {
  std::ofstream os(path);
  if (!os) throw runtime_failure("cannot open '" + path + "' for writing");
  os << "trajectory,shot,record,nominal_probability,errors\n";
  for (const be::TrajectoryBatch& batch : result.batches) {
    std::string errors;
    for (std::size_t i = 0; i < batch.spec.branches.size(); ++i) {
      if (i) errors += ';';
      errors += std::to_string(batch.spec.branches[i].site) + ':' +
                std::to_string(batch.spec.branches[i].branch);
    }
    for (std::size_t s = 0; s < batch.records.size(); ++s) {
      os << batch.spec_index << ',' << s << ',' << batch.records[s] << ','
         << batch.spec.nominal_probability << ',' << errors << '\n';
    }
  }
  if (!os) throw runtime_failure("error while writing '" + path + "'");
}

void write_binary(const std::string& path, const be::Result& result) {
  StreamWriter writer(path);
  for (const be::TrajectoryBatch& batch : result.batches) writer.append(batch);
  writer.close();
}

StreamWriter::StreamWriter(const std::string& path)
    : path_(path),
      os_(path, std::ios::binary),
      uncaught_at_open_(std::uncaught_exceptions()) {
  if (!os_) throw runtime_failure("cannot open '" + path + "' for writing");
  const std::uint64_t count = 0;  // patched by flush()/close()
  os_.write(kFormatMagic, sizeof kFormatMagic);
  os_.write(reinterpret_cast<const char*>(&kFormatVersion),
            sizeof kFormatVersion);
  os_.write(reinterpret_cast<const char*>(&count), sizeof count);
  bytes_ = kHeaderBytes;
  if (!os_) throw runtime_failure("error while writing '" + path_ + "'");
}

StreamWriter::~StreamWriter() {
  // Unwinding from an aborted run: leave the header count 0 so the partial
  // file reads as incomplete rather than as a smaller complete corpus.
  if (std::uncaught_exceptions() > uncaught_at_open_) return;
  try {
    close();
  } catch (...) {
    // Destructors must not throw; the file is left invalid, as documented.
  }
}

void StreamWriter::append(const be::TrajectoryBatch& batch) {
  PTSBE_REQUIRE(!closed_, "StreamWriter is closed");
  encode_block(batch, [this](const void* data, std::size_t n) {
    os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  });
  if (!os_) throw runtime_failure("error while writing '" + path_ + "'");
  ++count_;
  records_ += batch.records.size();
  bytes_ += block_bytes(batch);
}

void StreamWriter::flush() {
  PTSBE_REQUIRE(!closed_, "StreamWriter is closed");
  os_.seekp(kBatchCountOffset);
  os_.write(reinterpret_cast<const char*>(&count_), sizeof count_);
  os_.flush();
  if (!os_) throw runtime_failure("error while writing '" + path_ + "'");
  // Return the put position to the end so the next append() extends the
  // file instead of overwriting the batch after the header.
  os_.seekp(0, std::ios::end);
  if (!os_) throw runtime_failure("error while writing '" + path_ + "'");
}

void StreamWriter::close() {
  if (closed_) return;
  os_.seekp(kBatchCountOffset);
  os_.write(reinterpret_cast<const char*>(&count_), sizeof count_);
  os_.flush();
  closed_ = true;
  if (!os_) throw runtime_failure("error while writing '" + path_ + "'");
  os_.close();
}

be::Result read_binary(const std::string& path) {
  Reader reader(path);
  be::Result result;
  // No reserve from the header's batch count: a hostile count must never
  // reach the allocator.
  be::TrajectoryBatch batch;
  while (reader.next(batch)) result.batches.push_back(std::move(batch));
  return result;
}

}  // namespace ptsbe::dataset
