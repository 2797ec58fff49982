#ifndef CHURNLAB_CORE_SYMBOL_MAPPER_H_
#define CHURNLAB_CORE_SYMBOL_MAPPER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "retail/item_dictionary.h"
#include "retail/taxonomy.h"
#include "retail/types.h"

namespace churnlab {
namespace core {

/// Symbols are what the stability model observes: raw product ids at
/// product granularity, segment ids at segment granularity (see
/// SymbolMapper). They share the integer domain of retail ids.
using Symbol = uint32_t;

inline constexpr Symbol kInvalidSymbol = retail::kInvalidItem;

/// \brief Maps purchased ItemIds into the symbol space a model observes.
///
/// - `Granularity::kProduct`: identity mapping; symbols are product ids.
/// - `Granularity::kSegment`: items are abstracted into their taxonomy
///   segment (the paper's setting: 4M products -> 3,388 segments). Items
///   without a segment assignment map to a single reserved "unsegmented"
///   bucket (`num_segments` at construction time) so no purchase is silently
///   dropped; the datagen taxonomy assigns every item, so the bucket stays
///   empty in the reproduction experiments.
///
/// The mapper borrows the taxonomy; the taxonomy must outlive it and not
/// gain segments while mapped symbols are in flight.
class SymbolMapper {
 public:
  /// Builds a mapper. `taxonomy` is required (non-null) for segment
  /// granularity and ignored for product granularity.
  static Result<SymbolMapper> Make(retail::Granularity granularity,
                                   const retail::Taxonomy* taxonomy);

  /// Maps one item. Never returns kInvalidSymbol.
  Symbol Map(retail::ItemId item) const {
    if (granularity_ == retail::Granularity::kProduct) return item;
    const retail::SegmentId segment = taxonomy_->SegmentOf(item);
    return segment == retail::kInvalidSegment ? unsegmented_bucket_ : segment;
  }

  /// Human-readable name of a symbol: the product name at product
  /// granularity, the segment name at segment granularity.
  std::string SymbolName(Symbol symbol,
                         const retail::ItemDictionary& items) const;

  retail::Granularity granularity() const { return granularity_; }

  /// The reserved bucket for unassigned items (segment granularity only).
  Symbol unsegmented_bucket() const { return unsegmented_bucket_; }

 private:
  SymbolMapper(retail::Granularity granularity,
               const retail::Taxonomy* taxonomy, Symbol unsegmented_bucket)
      : granularity_(granularity),
        taxonomy_(taxonomy),
        unsegmented_bucket_(unsegmented_bucket) {}

  retail::Granularity granularity_;
  const retail::Taxonomy* taxonomy_ = nullptr;
  Symbol unsegmented_bucket_ = kInvalidSymbol;
};

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_SYMBOL_MAPPER_H_
