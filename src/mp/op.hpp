#pragma once

/// \file op.hpp
/// \brief Reduction operations for the message-passing collectives.
///
/// The paper (§III.D) lists MPI's builtin combine operations: sum, product,
/// minimum, maximum, minimum/maximum *and its location*, logical and/or/xor,
/// and bitwise and/or/xor — plus user-defined operations, which must be
/// associative. All of those are provided here. MINLOC/MAXLOC operate on
/// ValueLoc pairs, exactly like MPI's (value, index) types.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <string>

namespace pml::mp {

/// A reduction operation: identity + associative combiner.
/// Construct your own for user-defined reductions; the combiner must be
/// associative (MPI's requirement). The tree collectives combine in a
/// deterministic rank order, so commutativity is *optional* — but the
/// bandwidth-optimal algorithms (ring reduce-scatter, butterfly at
/// non-power-of-two p) reorder operands and are only selected when
/// `commutative` is set; otherwise they fall back to the tree.
template <typename T>
struct Op {
  std::string name;
  T identity{};
  std::function<T(const T&, const T&)> combine;
  /// True iff combine(a, b) == combine(b, a) for all a, b. Every builtin
  /// sets it; user ops default to false (safe: tree order is always used).
  bool commutative = false;
  /// Optional elementwise bulk combiner: applies acc[i] = combine(acc[i],
  /// in[i]) for i in [0, n). The vector collectives use it to replace one
  /// std::function call per element with one per message — the builtins
  /// supply a plain loop the compiler can vectorize. Leave empty for user
  /// ops and the collectives loop over `combine` instead.
  std::function<void(T*, const T*, std::size_t)> combine_n{};
};

namespace op_detail {

/// Wraps a captureless elementwise functor as an Op::combine_n loop.
template <typename T, typename F>
std::function<void(T*, const T*, std::size_t)> bulk(F f) {
  return [f](T* acc, const T* in, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) acc[i] = f(acc[i], in[i]);
  };
}

}  // namespace op_detail

/// \name Builtin operations
/// @{
template <typename T>
Op<T> op_sum() {
  auto f = [](const T& a, const T& b) { return static_cast<T>(a + b); };
  return {"MPI_SUM", T{0}, f, true, op_detail::bulk<T>(f)};
}

template <typename T>
Op<T> op_prod() {
  auto f = [](const T& a, const T& b) { return static_cast<T>(a * b); };
  return {"MPI_PROD", T{1}, f, true, op_detail::bulk<T>(f)};
}

template <typename T>
Op<T> op_min() {
  auto f = [](const T& a, const T& b) { return std::min(a, b); };
  return {"MPI_MIN", std::numeric_limits<T>::max(), f, true,
          op_detail::bulk<T>(f)};
}

template <typename T>
Op<T> op_max() {
  auto f = [](const T& a, const T& b) { return std::max(a, b); };
  return {"MPI_MAX", std::numeric_limits<T>::lowest(), f, true,
          op_detail::bulk<T>(f)};
}

template <typename T>
Op<T> op_land() {
  auto f = [](const T& a, const T& b) { return static_cast<T>(a && b); };
  return {"MPI_LAND", static_cast<T>(1), f, true, op_detail::bulk<T>(f)};
}

template <typename T>
Op<T> op_lor() {
  auto f = [](const T& a, const T& b) { return static_cast<T>(a || b); };
  return {"MPI_LOR", static_cast<T>(0), f, true, op_detail::bulk<T>(f)};
}

template <typename T>
Op<T> op_lxor() {
  auto f = [](const T& a, const T& b) { return static_cast<T>(!a != !b); };
  return {"MPI_LXOR", static_cast<T>(0), f, true, op_detail::bulk<T>(f)};
}

template <typename T>
Op<T> op_band() {
  auto f = [](const T& a, const T& b) { return static_cast<T>(a & b); };
  return {"MPI_BAND", static_cast<T>(~T{0}), f, true, op_detail::bulk<T>(f)};
}

template <typename T>
Op<T> op_bor() {
  auto f = [](const T& a, const T& b) { return static_cast<T>(a | b); };
  return {"MPI_BOR", T{0}, f, true, op_detail::bulk<T>(f)};
}

template <typename T>
Op<T> op_bxor() {
  auto f = [](const T& a, const T& b) { return static_cast<T>(a ^ b); };
  return {"MPI_BXOR", T{0}, f, true, op_detail::bulk<T>(f)};
}
/// @}

/// A (value, location) pair for MINLOC/MAXLOC. Trivially copyable so it
/// serializes through the normal scalar codec.
template <typename T>
struct ValueLoc {
  T value{};
  int loc = -1;
  friend bool operator==(const ValueLoc&, const ValueLoc&) = default;
};

/// MPI_MINLOC: minimum value; ties keep the *lower* location.
template <typename T>
Op<ValueLoc<T>> op_minloc() {
  auto f = [](const ValueLoc<T>& a, const ValueLoc<T>& b) {
    if (a.value < b.value) return a;
    if (b.value < a.value) return b;
    return a.loc <= b.loc ? a : b;
  };
  return {"MPI_MINLOC",
          ValueLoc<T>{std::numeric_limits<T>::max(), std::numeric_limits<int>::max()},
          f, true, op_detail::bulk<ValueLoc<T>>(f)};
}

/// MPI_MAXLOC: maximum value; ties keep the *lower* location.
template <typename T>
Op<ValueLoc<T>> op_maxloc() {
  auto f = [](const ValueLoc<T>& a, const ValueLoc<T>& b) {
    if (a.value > b.value) return a;
    if (b.value > a.value) return b;
    return a.loc <= b.loc ? a : b;
  };
  return {"MPI_MAXLOC",
          ValueLoc<T>{std::numeric_limits<T>::lowest(), std::numeric_limits<int>::max()},
          f, true, op_detail::bulk<ValueLoc<T>>(f)};
}

}  // namespace pml::mp
