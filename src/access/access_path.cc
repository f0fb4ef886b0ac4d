#include "access/access_path.h"

namespace smoothscan {

Status AccessPath::Open() {
  stats_ = AccessPathStats();
  exhausted_ = false;
  ctx_ = ctx_override_ != nullptr ? *ctx_override_ : DefaultContext();
  return OpenImpl();
}

bool AccessPath::NextBatch(TupleBatch* out) {
  out->Clear();
  if (exhausted_) return false;
  if (!NextBatchImpl(out)) exhausted_ = true;
  return !out->empty();
}

void AccessPath::Close() {
  exhausted_ = true;
  CloseImpl();
}

}  // namespace smoothscan
