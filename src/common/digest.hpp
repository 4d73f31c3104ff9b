// Order-sensitive 64-bit FNV-1a over the 8 little-endian bytes of each
// mixed word: equal digests mean equal word streams in equal order. The
// determinism checks (shard counts, fault plans, migrations) compare
// runs through it.
#pragma once

#include "common/types.hpp"

namespace artmt {

struct Digest {
  u64 h = 1469598103934665603ull;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

}  // namespace artmt
