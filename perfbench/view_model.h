// An independent model of the DailySales summary view, used to check every
// read the benchmark makes. It is built straight from the generated base
// events with plain standard-library containers and shares no code with
// the engine's view maintenance, versioning or query layers: only the
// event and value types are common.
#ifndef PERFBENCH_VIEW_MODEL_H_
#define PERFBENCH_VIEW_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "warehouse/view_maintenance.h"

namespace perfbench {

// One group of the view: the four dimension values.
struct GroupId {
  std::string city;
  std::string state;
  std::string line;
  int32_t date = 0;  // packed yyyymmdd, as Value::AsDateRaw
};

inline std::string KeyOf(const std::string& city, const std::string& state,
                         const std::string& line, int32_t date) {
  std::string key = city;
  key += '\x1f';
  key += state;
  key += '\x1f';
  key += line;
  key += '\x1f';
  key += std::to_string(date);
  return key;
}
inline std::string KeyOf(const GroupId& g) {
  return KeyOf(g.city, g.state, g.line, g.date);
}

struct Agg {
  int64_t sum = 0;
  int64_t support = 0;
  bool operator==(const Agg& o) const {
    return sum == o.sum && support == o.support;
  }
};

struct LineAgg {
  int64_t sum = 0;
  int64_t support = 0;
  int64_t groups = 0;
  bool operator==(const LineAgg& o) const {
    return sum == o.sum && support == o.support && groups == o.groups;
  }
};

// The view as of one committed version.
struct Snapshot {
  std::unordered_map<std::string, Agg> groups;
  std::vector<GroupId> ids;  // live groups, sorted by key (deterministic)
  std::map<std::string, LineAgg> by_line;
  int64_t signed_total = 0;  // signed sum of every event amount so far
};

// The live model plus the snapshots taken at each commit.
class ViewModel {
 public:
  // Applies one maintenance chunk. Events are netted per group first, as
  // a delta is propagated, so the revive count below matches what the
  // engine is asked to do: a group that drops to support 0 is deleted,
  // and a deleted group that comes back in the same transaction is a
  // Table-2 re-insert over a logically deleted tuple.
  void ApplyChunk(const wvm::warehouse::DeltaBatch& chunk) {
    struct Net {
      GroupId id;
      Agg delta;
    };
    std::unordered_map<std::string, Net> net;
    for (const wvm::warehouse::BaseEvent& e : chunk) {
      const std::string key =
          KeyOf(e.dims[0].AsString(), e.dims[1].AsString(),
                e.dims[2].AsString(), e.dims[3].AsDateRaw());
      auto [it, fresh] = net.try_emplace(key);
      if (fresh) {
        it->second.id = GroupId{e.dims[0].AsString(), e.dims[1].AsString(),
                                e.dims[2].AsString(), e.dims[3].AsDateRaw()};
      }
      const int64_t sign = e.retraction ? -1 : 1;
      it->second.delta.sum += sign * e.amount;
      it->second.delta.support += sign;
      signed_total_ += sign * e.amount;
    }
    for (auto& [key, n] : net) {
      if (n.delta.sum == 0 && n.delta.support == 0) continue;
      auto live = live_.find(key);
      if (live == live_.end()) {
        if (n.delta.support <= 0) {
          ++anomalies_;  // a retraction of a group that does not exist
          continue;
        }
        if (deleted_in_txn_.count(key) != 0) ++revives_;
        live_.emplace(key, n.delta);
        ids_.emplace(key, std::move(n.id));
        continue;
      }
      live->second.sum += n.delta.sum;
      live->second.support += n.delta.support;
      if (live->second.support < 0) ++anomalies_;
      if (live->second.support <= 0) {
        live_.erase(live);
        ids_.erase(key);
        deleted_in_txn_.insert(key);
        ++deletes_;
      }
    }
  }

  // Freezes the live model as version `vn`.
  void Commit(int64_t vn) {
    auto snap = std::make_shared<Snapshot>();
    snap->groups = live_;
    snap->ids.reserve(ids_.size());
    std::vector<const std::string*> keys;
    keys.reserve(ids_.size());
    for (const auto& [key, id] : ids_) keys.push_back(&key);
    std::sort(keys.begin(), keys.end(),
              [](const std::string* a, const std::string* b) {
                return *a < *b;
              });
    for (const std::string* key : keys) {
      const GroupId& id = ids_.at(*key);
      snap->ids.push_back(id);
      const Agg& agg = live_.at(*key);
      LineAgg& line = snap->by_line[id.line];
      line.sum += agg.sum;
      line.support += agg.support;
      ++line.groups;
    }
    snap->signed_total = signed_total_;
    snapshots_[vn] = std::move(snap);
    while (snapshots_.size() > 2) snapshots_.erase(snapshots_.begin());
    EndTxn();
  }

  // Ends a transaction without a snapshot (preload days nobody reads).
  void EndTxn() { deleted_in_txn_.clear(); }

  // Keys deleted by the last committed transaction stay physically present
  // while a session holds garbage collection back; re-creating one in the
  // next transaction is then a re-insert over a logically deleted tuple.
  void CarryDeletesOver(const std::unordered_set<std::string>& keys) {
    deleted_in_txn_.insert(keys.begin(), keys.end());
  }
  std::unordered_set<std::string> TakeDeletes() { return deleted_in_txn_; }

  const Snapshot* At(int64_t vn) const {
    auto it = snapshots_.find(vn);
    return it == snapshots_.end() ? nullptr : it->second.get();
  }
  size_t live_groups() const { return live_.size(); }
  uint64_t revives() const { return revives_; }
  uint64_t deletes() const { return deletes_; }
  // Generated deltas that no view state could have produced; always 0
  // for the workload generator's events.
  uint64_t anomalies() const { return anomalies_; }

 private:
  std::unordered_map<std::string, Agg> live_;
  std::unordered_map<std::string, GroupId> ids_;
  std::unordered_set<std::string> deleted_in_txn_;
  std::map<int64_t, std::shared_ptr<const Snapshot>> snapshots_;
  int64_t signed_total_ = 0;
  uint64_t revives_ = 0;
  uint64_t deletes_ = 0;
  uint64_t anomalies_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_VIEW_MODEL_H_
