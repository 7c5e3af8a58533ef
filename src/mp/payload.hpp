#pragma once

/// \file payload.hpp
/// \brief Typed serialization for message payloads.
///
/// Messages cross "address spaces": rank A's objects must be *copied* into a
/// byte payload and reconstructed at rank B — even though our ranks are
/// threads, nothing is shared through a message. That isolation is the whole
/// point of the multiprocessing model the MPI patternlets teach, so the
/// codec is a real byte-level serializer, not a pointer pass.
///
/// The wire format is InlinePayload: a byte buffer with 64 bytes of inline
/// storage. Scalars, the (value, location) pairs of MINLOC/MAXLOC, barrier
/// tokens, and collective control messages — the overwhelming majority of
/// patternlet traffic — fit inline, so a send is a memcpy into the envelope
/// instead of a heap allocation, and a delivery *moves* the bytes without
/// touching the allocator. Bodies above 64 bytes spill to the heap exactly
/// once at encode time and then move pointer-for-pointer through every hop.
///
/// Codec<T> is provided for trivially-copyable T, std::vector<T> of
/// trivially-copyable T, std::string, and Payload itself (identity — used
/// to ship pre-serialized blobs such as the mapreduce shuffle).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace pml::mp {

/// The wire format of one message body: a contiguous byte buffer with
/// small-buffer optimization. Mirrors the slice of the std::vector<std::byte>
/// interface the runtime and codecs use.
class InlinePayload {
 public:
  /// Bodies of at most this many bytes live inside the object itself.
  static constexpr std::size_t kInlineBytes = 64;

  using value_type = std::byte;
  using iterator = std::byte*;
  using const_iterator = const std::byte*;

  InlinePayload() noexcept : size_(0), cap_(kInlineBytes), data_(inline_) {}

  /// Zero-filled buffer of \p n bytes (the std::vector<std::byte>(n) shape
  /// the codecs build into).
  explicit InlinePayload(std::size_t n) : InlinePayload() {
    resize(n);
  }

  InlinePayload(const InlinePayload& other) : InlinePayload() {
    if (!other.spilled()) {
      // Fixed-size copy: compiles to straight-line vector moves instead of
      // a runtime-length memcpy call. The tail past size_ is never read.
      std::memcpy(inline_, other.inline_, kInlineBytes);
      size_ = other.size_;
    } else {
      assign(other.data_, other.size_);
    }
  }

  InlinePayload(InlinePayload&& other) noexcept : InlinePayload() {
    steal(std::move(other));
  }

  InlinePayload& operator=(const InlinePayload& other) {
    if (this != &other) {
      if (!other.spilled() && !spilled()) {
        std::memcpy(inline_, other.inline_, kInlineBytes);  // fixed-size copy
        size_ = other.size_;
      } else {
        assign(other.data_, other.size_);
      }
    }
    return *this;
  }

  InlinePayload& operator=(InlinePayload&& other) noexcept {
    if (this != &other) {
      release();
      steal(std::move(other));
    }
    return *this;
  }

  ~InlinePayload() { release(); }

  std::byte* data() noexcept { return data_; }
  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return cap_; }

  /// True while the bytes live on the heap (diagnostics and tests).
  bool spilled() const noexcept { return data_ != inline_; }

  iterator begin() noexcept { return data_; }
  iterator end() noexcept { return data_ + size_; }
  const_iterator begin() const noexcept { return data_; }
  const_iterator end() const noexcept { return data_ + size_; }
  const_iterator cbegin() const noexcept { return data_; }
  const_iterator cend() const noexcept { return data_ + size_; }

  void clear() noexcept { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  /// Grows zero-filled or shrinks, like std::vector::resize.
  void resize(std::size_t n) {
    if (n > cap_) grow(n);
    if (n > size_) std::memset(data_ + size_, 0, n - size_);
    size_ = n;
  }

  void push_back(std::byte b) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = b;
  }

  /// Removes the last byte; no-op when empty. Decoders walk payloads built
  /// from arbitrary byte streams, so the empty case is tolerated (like
  /// clear()) instead of inheriting std::vector's undefined behavior, which
  /// here would wrap size_ to SIZE_MAX and poison every later append.
  void pop_back() noexcept {
    if (size_ > 0) --size_;
  }

  /// Appends \p n raw bytes (the hot path of incremental encoders).
  void append(const void* bytes, std::size_t n) {
    if (size_ + n > cap_) grow(size_ + n);
    std::memcpy(data_ + size_, bytes, n);
    size_ += n;
  }

  /// Byte-range insert, std::vector-compatible. Insertion anywhere is
  /// supported; appending at end() is the common case and costs one memcpy.
  /// Inserting a range that points into this payload's own bytes is safe:
  /// the source is detached first, because grow() would free it and the
  /// tail memmove would shift it even when no reallocation happens.
  template <typename It>
  iterator insert(const_iterator pos, It first, It last) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    const std::size_t n = static_cast<std::size_t>(std::distance(first, last));
    if (n != 0 && overlaps_self(first, last)) {
      InlinePayload detached;
      detached.reserve(n);
      for (It it = first; it != last; ++it) {
        detached.push_back(static_cast<std::byte>(*it));
      }
      return insert(data_ + at, detached.cbegin(), detached.cend());
    }
    if (size_ + n > cap_) grow(size_ + n);
    if (at < size_) std::memmove(data_ + at + n, data_ + at, size_ - at);
    std::byte* out = data_ + at;
    for (It it = first; it != last; ++it, ++out) *out = static_cast<std::byte>(*it);
    size_ += n;
    return data_ + at;
  }

  friend bool operator==(const InlinePayload& a, const InlinePayload& b) noexcept {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }
  friend bool operator!=(const InlinePayload& a, const InlinePayload& b) noexcept {
    return !(a == b);
  }

 private:
  /// True when [first, last) points into this payload's live bytes. Only
  /// pointer-shaped iterators can alias the buffer; anything else (list
  /// iterators, transform iterators) reads foreign storage by construction.
  template <typename It>
  bool overlaps_self(It first, It last) const noexcept {
    if constexpr (std::is_pointer_v<It>) {
      const auto* lo = reinterpret_cast<const std::byte*>(first);
      const auto* hi = reinterpret_cast<const std::byte*>(last);
      const std::less<const std::byte*> lt;  // total order for foreign ptrs
      return lt(lo, data_ + size_) && lt(data_, hi);
    } else {
      (void)first;
      (void)last;
      return false;
    }
  }

  void assign(const std::byte* bytes, std::size_t n) {
    if (n > cap_) grow_discard(n);
    std::memcpy(data_, bytes, n);
    size_ = n;
  }

  void steal(InlinePayload&& other) noexcept {
    if (other.spilled()) {
      data_ = other.data_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.data_ = other.inline_;
      other.cap_ = kInlineBytes;
      other.size_ = 0;
    } else {
      data_ = inline_;
      cap_ = kInlineBytes;
      size_ = other.size_;
      // Fixed-size copy (see the copy constructor): cheaper than a
      // runtime-length memcpy call for every small-body hop. An empty body
      // has nothing to copy, and a fresh one not a byte initialized.
      if (size_ != 0) std::memcpy(inline_, other.inline_, kInlineBytes);
      other.size_ = 0;
    }
  }

  void release() noexcept {
    if (spilled()) ::operator delete(data_);
    data_ = inline_;
    cap_ = kInlineBytes;
  }

  void grow(std::size_t need) {
    const std::size_t cap = std::max(need, cap_ * 2);
    auto* fresh = static_cast<std::byte*>(::operator new(cap));
    std::memcpy(fresh, data_, size_);
    if (spilled()) ::operator delete(data_);
    data_ = fresh;
    cap_ = cap;
  }

  /// grow() without preserving contents (assign's full overwrite).
  void grow_discard(std::size_t need) {
    const std::size_t cap = std::max(need, cap_ * 2);
    auto* fresh = static_cast<std::byte*>(::operator new(cap));
    if (spilled()) ::operator delete(data_);
    data_ = fresh;
    cap_ = cap;
  }

  std::size_t size_;
  std::size_t cap_;
  std::byte* data_;  ///< inline_ or a heap spill of cap_ bytes.
  /// 8-byte alignment, not max_align_t: codecs move bytes with memcpy, so
  /// stricter alignment would only pad the envelope onto a third cache line.
  alignas(8) std::byte inline_[kInlineBytes];
};

/// The wire format of one message body.
using Payload = InlinePayload;

/// Primary template: defined only through the specializations below.
template <typename T, typename Enable = void>
struct Codec;

/// Trivially-copyable scalars and PODs: raw byte copy.
template <typename T>
struct Codec<T, std::enable_if_t<std::is_trivially_copyable_v<T>>> {
  static Payload encode(const T& value) {
    Payload out;
    out.append(&value, sizeof(T));
    return out;
  }
  static T decode(const Payload& bytes) {
    if (bytes.size() != sizeof(T)) {
      throw RuntimeFault("payload size mismatch: expected " +
                         std::to_string(sizeof(T)) + " bytes, got " +
                         std::to_string(bytes.size()));
    }
    T value;
    std::memcpy(&value, bytes.data(), sizeof(T));
    return value;
  }
};

/// Vectors of trivially-copyable elements: length-free raw array
/// (element count is implied by payload size).
template <typename T>
struct Codec<std::vector<T>, std::enable_if_t<std::is_trivially_copyable_v<T>>> {
  static Payload encode(const std::vector<T>& values) {
    Payload out;
    if (!values.empty()) out.append(values.data(), values.size() * sizeof(T));
    return out;
  }
  static std::vector<T> decode(const Payload& bytes) {
    if (bytes.size() % sizeof(T) != 0) {
      throw RuntimeFault("payload size " + std::to_string(bytes.size()) +
                         " is not a multiple of element size " +
                         std::to_string(sizeof(T)));
    }
    std::vector<T> values(bytes.size() / sizeof(T));
    if (!values.empty()) std::memcpy(values.data(), bytes.data(), bytes.size());
    return values;
  }
};

/// Strings: raw character bytes.
template <>
struct Codec<std::string, void> {
  static Payload encode(const std::string& s) {
    Payload out;
    if (!s.empty()) out.append(s.data(), s.size());
    return out;
  }
  static std::string decode(const Payload& bytes) {
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
  }
};

/// Payload itself: identity. Lets pre-serialized blobs (mapreduce shuffle)
/// ride the typed send/recv API; the rvalue decode moves the received bytes
/// straight out of the envelope.
template <>
struct Codec<Payload, void> {
  static Payload encode(const Payload& p) { return p; }
  static Payload encode(Payload&& p) { return std::move(p); }
  static Payload decode(const Payload& bytes) { return bytes; }
  static Payload decode(Payload&& bytes) { return std::move(bytes); }
};

/// Number of T elements a payload holds (the MPI_Get_count analogue).
/// Throws RuntimeFault when the payload size is not a whole number of
/// elements — the same contract as Codec<std::vector<T>>::decode, so a
/// count that element_count reports is always a count decode can deliver.
template <typename T>
std::size_t element_count(const Payload& bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (bytes.size() % sizeof(T) != 0) {
    throw RuntimeFault("payload size " + std::to_string(bytes.size()) +
                       " is not a multiple of element size " +
                       std::to_string(sizeof(T)));
  }
  return bytes.size() / sizeof(T);
}

/// The body of a ready-to-send (RTS) control envelope: a claim ticket for a
/// buffer parked in the job's rendezvous table, plus the parked byte count
/// so probe()/Status report the true body size without claiming it.
/// Trivially copyable — rides the scalar Codec unchanged. The protocol
/// lives in mp/rendezvous.hpp.
struct RendezvousHandle {
  std::uint64_t ticket = 0;  ///< Rendezvous table claim ticket.
  std::uint64_t bytes = 0;   ///< Size of the parked body in bytes.
};

}  // namespace pml::mp
