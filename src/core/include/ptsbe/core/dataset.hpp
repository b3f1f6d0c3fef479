#pragma once

/// \file dataset.hpp
/// \brief Shot-dataset persistence with error-provenance labels.
///
/// The paper's target application is generating massive labelled datasets
/// (e.g. for training ML-based QEC decoders): each shot must carry the error
/// content of the trajectory it was sampled from — the supervision signal
/// physical hardware cannot provide. Two formats:
///
///  - CSV   — human-readable; one row per shot with its spec's branch list;
///  - binary — compact columnar blocks, one per trajectory batch, suitable
///    for the trillion-shot-scale corpora the paper reports.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ptsbe/core/batched_execution.hpp"

namespace ptsbe::dataset {

/// Binary-format framing shared by the writers here, `Reader` and the net
/// BATCH frame: magic, current version, and the fixed header size (magic +
/// version + u64 batch count). These are part of the on-disk contract —
/// bump `kFormatVersion` on any incompatible layout change.
inline constexpr char kFormatMagic[4] = {'P', 'T', 'S', 'B'};
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::size_t kHeaderBytes =
    sizeof(kFormatMagic) + sizeof(kFormatVersion) + sizeof(std::uint64_t);

// ---------------------------------------------------------------------------
// The batch block codec. One format-v2 block holds one TrajectoryBatch, as
// little-endian fixed-width fields (doubles as raw IEEE-754 bit patterns):
//
//   u64 spec_index | f64 nominal_probability | f64 realized_probability |
//   u64 shots | u64 num_branches | num_branches x (u64 site, u64 branch) |
//   u64 num_records | num_records x u64 record
//
// A dataset file is the header followed by blocks; a net BATCH payload is
// exactly one block. These three functions are the only code that writes,
// sizes or reads a block.
// ---------------------------------------------------------------------------

/// Bytes of the block `encode_block` writes for `batch`.
[[nodiscard]] std::uint64_t block_bytes(const be::TrajectoryBatch& batch);

/// Receives an encoded block as a few contiguous pieces, in order.
using BlockWriter = std::function<void(const void* data, std::size_t n)>;

/// Encode `batch` as one block. The branch list and the records each go to
/// `write` as one piece straight from the batch's vectors, so a file
/// writer never copies them.
void encode_block(const be::TrajectoryBatch& batch, const BlockWriter& write);

/// Random-access bytes holding blocks: a mapped or pread file (see
/// `Reader`) or an in-memory buffer (`MemorySource`). `read_at` checks
/// every range, so a source that ends early reports "truncated dataset
/// file" instead of yielding garbage.
class ByteSource {
 public:
  ByteSource(std::uint64_t size, std::string name)
      : size_(size), name_(std::move(name)) {}
  virtual ~ByteSource() = default;
  ByteSource(const ByteSource&) = delete;
  ByteSource& operator=(const ByteSource&) = delete;

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  /// Label used in diagnostics (the file path, or what the buffer is).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] virtual bool mapped() const noexcept { return false; }

  /// Copy `n` bytes at `offset` into `dst`.
  /// \throws invariant_error when [offset, offset+n) exceeds the source.
  void read_at(std::uint64_t offset, void* dst, std::size_t n) {
    if (offset > size_ || n > size_ - offset) throw_truncated();
    if (n != 0) copy(offset, dst, n);
  }

  /// \throws invariant_error ("truncated dataset file '<name>'").
  [[noreturn]] void throw_truncated() const;

 protected:
  /// Copy an in-range span (`read_at` has checked the bounds; n > 0).
  virtual void copy(std::uint64_t offset, void* dst, std::size_t n) = 0;

 private:
  std::uint64_t size_;
  std::string name_;
};

/// A ByteSource over bytes already in memory (a BATCH payload). The bytes
/// must outlive the source.
class MemorySource final : public ByteSource {
 public:
  MemorySource(std::string_view bytes, std::string name)
      : ByteSource(bytes.size(), std::move(name)), bytes_(bytes) {}

 private:
  void copy(std::uint64_t offset, void* dst, std::size_t n) override;
  std::string_view bytes_;
};

/// Decode the block at `offset` of `source` into `out` (its vectors are
/// reused), or, when `out` is null, skip it reading only its two length
/// fields. Every length is checked against the bytes left before anything
/// is allocated. Returns the offset just past the block.
/// \throws invariant_error ("truncated dataset file '<source name>'") when
///         the block runs past the end of `source`.
std::uint64_t decode_block(ByteSource& source, std::uint64_t offset,
                           be::TrajectoryBatch* out);

/// Write a BE result as CSV: columns
/// `trajectory,shot,record,nominal_probability,errors` where `errors` is a
/// semicolon-joined list of `site:branch` tokens.
/// \throws runtime_failure when the file cannot be written.
void write_csv(const std::string& path, const be::Result& result);

/// Write a BE result as the compact binary format (magic "PTSB", version 2;
/// version 2 dropped the scheduler-dependent per-batch device id, so the
/// bytes of a spec-ordered export depend only on the program, the specs
/// and the seed — never on thread count or scheduling). Implemented on top
/// of `StreamWriter`, so the two paths cannot diverge: streaming the same
/// batch sequence produces a byte-identical file. (A sink streaming under
/// `threads > 1` receives batches in completion order — same blocks,
/// possibly permuted; append in `spec_index` order when byte-stable files
/// matter.)
/// \throws runtime_failure when the file cannot be written.
void write_binary(const std::string& path, const be::Result& result);

/// Incremental writer for the binary format — the dataset end of the
/// streaming pipeline (`be::execute_streaming`'s sink appends each batch as
/// it completes, so a trillion-shot corpus is exported without ever holding
/// a full `be::Result` in memory). The batch count in the header is patched
/// in by `close()` (or the destructor on *normal* scope exit); when the
/// writer is destroyed during exception unwinding — an aborted streaming
/// run — the header count stays 0, so the partial file can never be
/// mistaken for a complete corpus. Not thread-safe on its own, but
/// `execute_streaming` serialises sink calls, so `append` needs no
/// external locking there.
class StreamWriter {
 public:
  /// Open `path` and write the dataset header.
  /// \throws runtime_failure when the file cannot be opened.
  explicit StreamWriter(const std::string& path);

  /// On normal scope exit: closes best-effort (errors are swallowed — call
  /// `close()` to observe them). During exception unwinding: leaves the
  /// header unpatched, marking the file incomplete.
  ~StreamWriter();

  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  /// Append one trajectory batch block (zero-probability unrealizable
  /// batches round-trip like any other: empty record payload, weight 0).
  /// \throws runtime_failure on write errors;
  ///         precondition_error after close().
  void append(const be::TrajectoryBatch& batch);

  /// Patch the header's batch count and flush. Idempotent.
  /// \throws runtime_failure on write errors.
  void close();

  /// Patch the header's batch count and flush *without* closing: after
  /// flush() returns, the bytes on disk are a complete, readable dataset
  /// of the batches appended so far, and further append() calls keep
  /// extending it. This is what lets the reader layer consume a stream
  /// that is still being written (the header count always describes a
  /// fully-written prefix — a flushed file never ends mid-batch).
  /// \throws runtime_failure on write errors;
  ///         precondition_error after close().
  void flush();

  /// Batches appended so far.
  [[nodiscard]] std::uint64_t batches_written() const noexcept {
    return count_;
  }

  /// Measurement records appended so far (across all batches).
  [[nodiscard]] std::uint64_t record_count() const noexcept {
    return records_;
  }

  /// Bytes written so far, header included — after flush()/close() this is
  /// exactly the file size, which is how the reader layer's tests pin a
  /// partially-written stream against the on-disk reality.
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_;
  }

 private:
  std::string path_;
  std::ofstream os_;
  std::uint64_t count_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
  int uncaught_at_open_ = 0;
};

/// Read a binary dataset back (round-trip of write_binary; prepare/sample
/// timings are not persisted): a loop over `Reader`, so it accepts and
/// rejects exactly the files `Reader` does.
/// \throws runtime_failure on missing files and bad headers;
///         invariant_error on truncated or hostile-length blocks.
[[nodiscard]] be::Result read_binary(const std::string& path);

}  // namespace ptsbe::dataset
