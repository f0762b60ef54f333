// Inter-domain network model.
//
// Task migration "may require additional data transformations ... before
// and/or after migrating a task"; moving input data between administrative
// domains costs latency + size/bandwidth, possibly inflated by a
// transformation factor (compression/encryption/byte-swapping).
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "grid/sim.hpp"

namespace ig::grid {

/// Data transformations required when crossing a link ("transformations
/// such as data compression/decompression, encryption/decryption and byte
/// swapping are likely to be necessary"). Each transformation scales the
/// effective payload and/or adds fixed processing time.
struct TransformSpec {
  bool compress = false;     ///< payload shrinks, but CPU time is spent
  bool encrypt = false;      ///< payload grows slightly, CPU time is spent
  bool byte_swap = false;    ///< endianness conversion, CPU time only
  double compress_ratio = 0.5;   ///< compressed size / original size
  double encrypt_overhead = 1.05;///< encrypted size / input size
  double cpu_mb_s = 200.0;       ///< transformation throughput (MB/s)

  /// Effective on-wire size of `size_mb` after the enabled transformations.
  double effective_size(double size_mb) const noexcept;
  /// CPU seconds spent transforming `size_mb` at both endpoints.
  double processing_time(double size_mb) const noexcept;
  bool any() const noexcept { return compress || encrypt || byte_swap; }
};

/// Link characteristics between two administrative domains.
struct LinkSpec {
  double latency_s = 0.01;        ///< one-way latency in virtual seconds
  double bandwidth_mb_s = 100.0;  ///< megabytes per virtual second
  TransformSpec transform;        ///< required migrations transformations
};

/// Symmetric domain-to-domain link table with a default link.
class NetworkModel {
 public:
  /// The link used for domain pairs without an explicit entry.
  void set_default_link(LinkSpec link) noexcept { default_link_ = link; }
  const LinkSpec& default_link() const noexcept { return default_link_; }

  /// Defines the link between two domains (order-insensitive).
  void set_link(std::string_view a, std::string_view b, LinkSpec link);
  const LinkSpec& link(std::string_view a, std::string_view b) const;

  /// Intra-domain transfers use a fast local link.
  void set_local_link(LinkSpec link) noexcept { local_link_ = link; }

  /// Time to move `size_mb` megabytes from domain `a` to domain `b`:
  /// latency + transformed-size/bandwidth + transformation CPU time.
  /// `transform_factor` > 1 models additional caller-side inflation.
  SimTime transfer_time(std::string_view a, std::string_view b, double size_mb,
                        double transform_factor = 1.0) const;

  /// One-way message latency between two domains.
  SimTime message_latency(std::string_view a, std::string_view b) const;

 private:
  static std::pair<std::string, std::string> key(std::string_view a, std::string_view b);

  LinkSpec default_link_{};
  LinkSpec local_link_{0.0005, 1000.0, {}};
  std::map<std::pair<std::string, std::string>, LinkSpec> links_;
};

}  // namespace ig::grid
