#include "src/core/div_topk.h"

#include <algorithm>
#include <cstdint>
#include <queue>


namespace dbx {
namespace {

// Items sorted by descending score; ties by index for determinism.
std::vector<size_t> ScoreOrder(const std::vector<double>& scores) {
  std::vector<size_t> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  return order;
}

std::vector<size_t> Greedy(const std::vector<double>& scores,
                           const SimilarityGraph& graph, size_t k) {
  std::vector<size_t> chosen;
  for (size_t idx : ScoreOrder(scores)) {
    if (chosen.size() >= k) break;
    bool conflict = false;
    for (size_t c : chosen) {
      if (graph.Similar(idx, c)) {
        conflict = true;
        break;
      }
    }
    if (!conflict) chosen.push_back(idx);
  }
  return chosen;
}

// Exact best-first branch-and-bound in the spirit of div-astar: states walk
// the score-ordered item list deciding include/skip; the admissible bound
// adds the scores of the best remaining items up to the k budget.
std::vector<size_t> DivAstar(const std::vector<double>& scores,
                             const SimilarityGraph& graph, size_t k) {
  const size_t n = scores.size();
  std::vector<size_t> order = ScoreOrder(scores);

  // Suffix bound: best score attainable from position p with b slots left,
  // ignoring conflicts (admissible).
  auto bound = [&](size_t pos, size_t budget) {
    double s = 0.0;
    for (size_t i = pos; i < n && budget > 0; ++i) {
      double sc = scores[order[i]];
      if (sc <= 0.0) break;  // non-positive scores never help
      s += sc;
      --budget;
    }
    return s;
  };

  struct State {
    double priority;  // current + bound
    double current;
    uint64_t mask;  // chosen items, bit = position in `order`
    uint32_t pos;
    uint32_t count;
    bool operator<(const State& o) const { return priority < o.priority; }
  };

  std::priority_queue<State> open;
  open.push({bound(0, k), 0.0, 0, 0, 0});
  double best_score = -1.0;
  uint64_t best_mask = 0;

  while (!open.empty()) {
    State s = open.top();
    open.pop();
    if (s.priority <= best_score) break;  // nothing better remains
    if (s.pos >= n || s.count >= k) {
      if (s.current > best_score) {
        best_score = s.current;
        best_mask = s.mask;
      }
      continue;
    }
    size_t item = order[s.pos];
    // Branch 1: skip item.
    {
      State nxt = s;
      nxt.pos = s.pos + 1;
      nxt.priority = nxt.current + bound(nxt.pos, k - nxt.count);
      if (nxt.priority > best_score) {
        open.push(nxt);
      } else if (nxt.current > best_score) {
        best_score = nxt.current;
        best_mask = nxt.mask;
      }
    }
    // Branch 2: take item, if compatible with the chosen set.
    bool conflict = false;
    for (uint32_t p = 0; p < s.pos; ++p) {
      if ((s.mask >> p) & 1) {
        if (graph.Similar(item, order[p])) {
          conflict = true;
          break;
        }
      }
    }
    if (!conflict) {
      State nxt;
      nxt.current = s.current + scores[item];
      nxt.mask = s.mask | (1ULL << s.pos);
      nxt.pos = s.pos + 1;
      nxt.count = s.count + 1;
      nxt.priority = nxt.current + bound(nxt.pos, k - nxt.count);
      if (nxt.current > best_score) {
        best_score = nxt.current;
        best_mask = nxt.mask;
      }
      if (nxt.priority > best_score) {
        open.push(nxt);
      }
    }
  }

  std::vector<size_t> chosen;
  for (size_t p = 0; p < n; ++p) {
    if ((best_mask >> p) & 1) chosen.push_back(order[p]);
  }
  return chosen;
}

}  // namespace

const char* DivTopKAlgorithmName(DivTopKAlgorithm a) {
  switch (a) {
    case DivTopKAlgorithm::kDivAstar: return "div-astar";
    case DivTopKAlgorithm::kGreedy: return "greedy";
    case DivTopKAlgorithm::kNoDiversity: return "no-diversity";
  }
  return "?";
}

Result<std::vector<size_t>> DiversifiedTopK(const std::vector<double>& scores,
                                            const SimilarityGraph& graph,
                                            size_t k,
                                            DivTopKAlgorithm algorithm) {
  if (scores.size() != graph.size()) {
    return Status::InvalidArgument("scores/graph size mismatch");
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");

  std::vector<size_t> chosen;
  switch (algorithm) {
    case DivTopKAlgorithm::kNoDiversity: {
      std::vector<size_t> order = ScoreOrder(scores);
      order.resize(std::min(k, order.size()));
      chosen = std::move(order);
      break;
    }
    case DivTopKAlgorithm::kGreedy:
      chosen = Greedy(scores, graph, k);
      break;
    case DivTopKAlgorithm::kDivAstar:
      if (scores.size() > 64) {
        chosen = Greedy(scores, graph, k);  // documented fallback
      } else {
        chosen = DivAstar(scores, graph, k);
      }
      break;
  }
  std::stable_sort(chosen.begin(), chosen.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  return chosen;
}

double SelectionScore(const std::vector<double>& scores,
                      const std::vector<size_t>& chosen) {
  double s = 0.0;
  for (size_t i : chosen) s += scores[i];
  return s;
}

bool SelectionIsDiverse(const SimilarityGraph& graph,
                        const std::vector<size_t>& chosen) {
  for (size_t i = 0; i < chosen.size(); ++i) {
    for (size_t j = i + 1; j < chosen.size(); ++j) {
      if (graph.Similar(chosen[i], chosen[j])) return false;
    }
  }
  return true;
}

}  // namespace dbx
