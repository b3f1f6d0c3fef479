#include "ptsbe/core/dataset_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "ptsbe/common/error.hpp"

namespace ptsbe::dataset {

const std::string& to_string(ViewMode mode) {
  static const std::string kNames[] = {"auto", "mmap", "stream"};
  return kNames[static_cast<std::uint8_t>(mode)];
}

ViewMode view_mode_from_string(const std::string& name) {
  if (name == "auto") return ViewMode::kAuto;
  if (name == "mmap") return ViewMode::kMmap;
  if (name == "stream") return ViewMode::kStream;
  throw precondition_error("unknown view mode '" + name +
                           "' (expected \"auto\", \"mmap\" or \"stream\")");
}

namespace {

class MmapSource final : public ByteSource {
 public:
  MmapSource(void* base, std::uint64_t size, std::string path)
      : ByteSource(size, std::move(path)),
        base_(static_cast<const char*>(base)) {}
  ~MmapSource() override {
    if (base_ != nullptr && size() > 0)
      ::munmap(const_cast<char*>(base_), size());
  }
  [[nodiscard]] bool mapped() const noexcept override { return true; }

 private:
  void copy(std::uint64_t offset, void* dst, std::size_t n) override {
    std::memcpy(dst, base_ + offset, n);
  }
  const char* base_;
};

class StreamSource final : public ByteSource {
 public:
  StreamSource(int fd, std::uint64_t size, std::string path)
      : ByteSource(size, std::move(path)), fd_(fd) {}
  ~StreamSource() override {
    if (fd_ >= 0) ::close(fd_);
  }

 private:
  void copy(std::uint64_t offset, void* dst, std::size_t n) override {
    char* out = static_cast<char*>(dst);
    while (n > 0) {
      const ssize_t got =
          ::pread(fd_, out, n, static_cast<off_t>(offset));
      if (got < 0) {
        if (errno == EINTR) continue;
        throw runtime_failure("error reading '" + name() +
                              "': " + std::strerror(errno));
      }
      if (got == 0) throw_truncated();  // the file shrank after open
      out += got;
      offset += static_cast<std::uint64_t>(got);
      n -= static_cast<std::size_t>(got);
    }
  }
  int fd_;
};

std::unique_ptr<ByteSource> open_source(const std::string& path,
                                        ViewMode mode) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw runtime_failure("cannot open '" + path + "' for reading");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw runtime_failure("cannot stat '" + path + "'");
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (mode != ViewMode::kStream && size > 0) {
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      // The mapping pins the bytes; the descriptor is no longer needed.
      ::close(fd);
      return std::make_unique<MmapSource>(base, size, path);
    }
    if (mode == ViewMode::kMmap) {
      ::close(fd);
      throw runtime_failure("cannot mmap '" + path +
                            "': " + std::strerror(errno));
    }
    // kAuto: fall through to the pread path.
  }
  return std::make_unique<StreamSource>(fd, size, path);
}

}  // namespace

Reader::Reader(const std::string& path, ViewMode mode)
    : source_(open_source(path, mode)) {
  if (source_->size() < kHeaderBytes)
    throw runtime_failure("'" + path + "' is not a PTSB dataset");
  char magic[sizeof kFormatMagic] = {};
  std::uint32_t version = 0;
  source_->read_at(0, magic, sizeof magic);
  source_->read_at(sizeof magic, &version, sizeof version);
  source_->read_at(sizeof magic + sizeof version, &num_batches_,
                   sizeof num_batches_);
  if (std::memcmp(magic, kFormatMagic, sizeof magic) != 0)
    throw runtime_failure("'" + path + "' is not a PTSB dataset");
  if (version != kFormatVersion)
    throw runtime_failure(
        "unsupported dataset version " + std::to_string(version) +
        (version == 1 ? " (version 1 embedded scheduler-dependent device "
                        "ids; regenerate the dataset)"
                      : ""));
  offset_ = kHeaderBytes;
  offsets_.push_back(offset_);
}

bool Reader::next(be::TrajectoryBatch& out) {
  if (index_ >= num_batches_) return false;
  offset_ = decode_block(*source_, offset_, &out);
  ++index_;
  if (index_ == offsets_.size()) offsets_.push_back(offset_);
  return true;
}

std::uint64_t Reader::offset_of(std::uint64_t index) {
  // Extend the lazy offset index by skip-scanning unvisited blocks.
  while (offsets_.size() <= index)
    offsets_.push_back(decode_block(*source_, offsets_.back(), nullptr));
  return offsets_[index];
}

void Reader::seek_batch(std::uint64_t index) {
  PTSBE_REQUIRE(index <= num_batches_,
                "seek_batch(" + std::to_string(index) + ") past the " +
                    std::to_string(num_batches_) + "-batch dataset");
  offset_ = offset_of(index);
  index_ = index;
}

Reader open_view(const std::string& path, ViewMode mode) {
  return Reader(path, mode);
}

}  // namespace ptsbe::dataset
