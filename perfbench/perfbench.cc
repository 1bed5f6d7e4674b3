// End-to-end benchmark driver for sudowoodo-cpp. One binary, three
// workloads, selected by --workload:
//
//   em_fastbag   EmPipeline::Run with the paper options (FastBag, one
//                thread) on AB then WA, repeated for --seconds. Training
//                dominates; blocking is under 1% of a run.
//   serve_read   A serving::Server with 2 FastBag replicas over a ~50k-item
//                LiveBlockingIndex, fed an open loop of kQuery (Zipf item
//                popularity) and kMatch requests. No writes.
//   serve_write  The same stack with 1 replica, fed 55% kUpsert, 10%
//                kDelete (live ids only) and 35% kQuery.
//
// Every workload emits the same metric names (BENCHMARK.json); what each
// means on each workload is tabled in perfbench/README.md. With --trace 0
// the end-to-end metrics are printed; with --trace 1 the per-layer ones,
// which come from timing calls into each module's public functions from
// this file (nothing inside src/ is instrumented).
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is non-zero when any output check failed.
//
//   perfbench --workload serve_read --seed 1 --seconds 16 --trace 0 [--smoke]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "contrastive/pretrainer.h"
#include "data/em_dataset.h"
#include "index/embedding_cache.h"
#include "index/ivf_index.h"
#include "index/live_index.h"
#include "matcher/pair_matcher.h"
#include "matcher/pseudo_label.h"
#include "nn/encoder.h"
#include "nn/optimizer.h"
#include "nn/weights.h"
#include "pipeline/em_pipeline.h"
#include "pipeline/metrics.h"
#include "serving/server.h"
#include "text/vocab.h"

namespace sudowoodo::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Run configuration and the result line.

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 16.0;
  bool trace = false;
  /// Tiny inputs and one set-up, for checking that everything is emitted.
  bool smoke = false;
};

/// Output checks: every failed check is counted and named on stderr.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      if (failed <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  /// Prints the result line; returns the process exit code.
  int Print(const Checks& checks) const {
    bool finite = true;
    std::string body;
    for (const auto& m : metrics_) {
      char buf[256];
      if (!std::isfinite(m.value)) {
        finite = false;
        std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
        std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                      m.name.c_str(), m.unit.c_str());
      } else {
        std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      m.name.c_str(), m.value, m.unit.c_str());
      }
      if (!body.empty()) body += ", ";
      body += buf;
    }
    const bool correct = finite && checks.failed == 0 && checks.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<uint64_t>(checks.attempted, 1)),
                static_cast<unsigned long long>(checks.failed), body.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Inputs. The workload seed fixes every generated input; the library only
// sees the generated tables and request streams.

data::EmDataset MakeDataset(const std::string& code, uint64_t seed) {
  data::EmSpec spec = data::GetEmSpec(code);
  spec.seed = SplitMix64(spec.seed * 0x9E3779B97F4A7C15ULL + seed);
  return data::GenerateEm(spec);
}

/// The paper configuration the benches call SudowoodoEmOptions: library
/// defaults (FastBag, one thread, all four optimizations on), seed 7.
pipeline::EmPipelineOptions PaperOptions() {
  pipeline::EmPipelineOptions o;
  o.seed = 7;
  return o;
}

// ---------------------------------------------------------------------------
// Stage tracing: wall time summed per named stage, recorded around calls
// into the library's public functions. Off = the lambdas run untimed.

class Stages {
 public:
  explicit Stages(bool on) : on_(on) {}

  template <class F>
  void Time(const std::string& name, F&& f) {
    if (!on_) {
      f();
      return;
    }
    const auto t0 = Clock::now();
    f();
    seconds_[name] += Seconds(t0, Clock::now());
  }

  double Get(const std::string& name) const {
    auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  double Sum() const {
    double s = 0.0;
    for (const auto& kv : seconds_) s += kv.second;
    return s;
  }

 private:
  bool on_;
  std::map<std::string, double> seconds_;
};

// ---------------------------------------------------------------------------
// The EM pipeline, step by step. Mirrors EmPipeline::Run (same calls, same
// order, same seed derivations) so the traced stage times describe the
// program em_fastbag times; em_fastbag checks that its test probabilities
// equal EmPipeline::Run's bit for bit.

struct TrainedModel {
  // Heap-held so the matcher's vocab pointer survives moving the model.
  std::unique_ptr<text::Vocab> vocab;
  std::unique_ptr<nn::Encoder> encoder;
  std::unique_ptr<matcher::PairMatcher> matcher;
  matcher::FinetuneOptions finetune;
  std::vector<matcher::PairExample> train_examples;
  std::vector<matcher::PairExample> valid_examples;
  std::vector<matcher::PairExample> test_examples;
  std::vector<std::vector<std::string>> tokens;  // A rows then B rows
  std::vector<float> test_probs;
  double f1 = 0.0;
  double blocking_recall = 0.0;
  int pretrain_steps = 0;
  int finetune_steps = 0;
  double total_s = 0.0;
};

/// Fine-tuning dropout coordinates pinned on every serving replica before
/// its fine-tune, so replicas fine-tuned from the same pre-trained weights
/// end bit-identical (an unpinned fine-tune continues the stream the
/// pre-training left, which a reloaded encoder does not have).
constexpr uint64_t kReplicaFinetuneEpoch = 1ULL << 40;

/// Runs ① pre-training, ② blocking, ③ pseudo labels, ④ fine-tuning and
/// the test prediction. When `pretrained_path` is non-empty the
/// pre-trained weights are saved there and the fine-tune stream is pinned
/// (see kReplicaFinetuneEpoch); the result then deliberately differs from
/// EmPipeline::Run's.
TrainedModel TrainEm(const data::EmDataset& ds,
                     const pipeline::EmPipelineOptions& o, Stages* st,
                     const std::string& pretrained_path) {
  const auto t0 = Clock::now();
  TrainedModel m;
  Rng rng(o.seed * 104729 + 1);

  std::vector<std::vector<std::string>> tokens_a, tokens_b;
  for (int i = 0; i < ds.table_a.num_rows(); ++i) {
    tokens_a.push_back(pipeline::EmPipeline::SerializeRow(ds.table_a, i));
  }
  for (int i = 0; i < ds.table_b.num_rows(); ++i) {
    tokens_b.push_back(pipeline::EmPipeline::SerializeRow(ds.table_b, i));
  }
  m.tokens = tokens_a;
  m.tokens.insert(m.tokens.end(), tokens_b.begin(), tokens_b.end());
  st->Time("text.vocab_build", [&] {
    m.vocab = std::make_unique<text::Vocab>(
        text::Vocab::Build(m.tokens, o.vocab_size));
  });
  m.encoder = pipeline::MakeEncoder(o.encoder_kind, m.vocab->size(),
                                    o.encoder_dim, o.max_len, o.seed, o.pool,
                                    o.num_threads, nullptr);

  contrastive::PretrainOptions popts = o.pretrain;
  popts.seed = o.seed * 7919 + 13;
  popts.num_threads = o.train_num_threads;
  popts.pool = o.pool;
  contrastive::Pretrainer pretrainer(m.encoder.get(), m.vocab.get(), popts);
  st->Time("contrastive.pretrain",
           [&] { SUDO_CHECK_OK(pretrainer.Run(m.tokens)); });
  m.pretrain_steps = pretrainer.stats().batches_run;
  if (!pretrained_path.empty()) {
    SUDO_CHECK_OK(nn::SaveWeights(m.encoder->Parameters(), pretrained_path));
    m.encoder->BeginTrainStep(kReplicaFinetuneEpoch, 0);
  }

  std::vector<std::vector<int>> ids_a, ids_b;
  st->Time("text.encode_ids", [&] {
    for (const auto& t : tokens_a) ids_a.push_back(m.vocab->Encode(t));
    for (const auto& t : tokens_b) ids_b.push_back(m.vocab->Encode(t));
  });
  std::vector<std::vector<float>> emb_a, emb_b;
  st->Time("nn.embed", [&] {
    emb_a = m.encoder->EmbedNormalized(ids_a);
    emb_b = m.encoder->EmbedNormalized(ids_b);
  });
  index::BlockingIndexOptions bopts = o.blocking_index;
  bopts.ivf.seed = o.seed * 6151 + 3;
  bopts.ivf.num_threads = o.num_threads;
  bopts.ivf.pool = o.pool;
  std::unique_ptr<index::BlockingIndex> index_b;
  st->Time("index.build", [&] {
    index_b = std::make_unique<index::BlockingIndex>(emb_b, bopts);
  });
  std::vector<std::vector<index::Neighbor>> topk;
  st->Time("index.query_batch", [&] {
    const index::VectorIndex& block_index = *index_b;
    SUDO_CHECK_OK(block_index.QueryBatch(emb_a, o.blocking_k, &topk,
                                         o.num_threads));
  });
  std::vector<matcher::ScoredPair> candidates;
  for (int a = 0; a < ds.table_a.num_rows(); ++a) {
    for (const auto& nb : topk[static_cast<size_t>(a)]) {
      candidates.push_back({a, nb.id, nb.sim});
    }
  }

  std::vector<data::LabeledPair> pool = ds.train;
  pool.insert(pool.end(), ds.valid.begin(), ds.valid.end());
  std::vector<data::LabeledPair> manual;
  auto idx = rng.SampleWithoutReplacement(
      static_cast<int>(pool.size()),
      std::min<int>(o.label_budget, static_cast<int>(pool.size())));
  for (int i : idx) manual.push_back(pool[static_cast<size_t>(i)]);
  for (const auto& p : manual) {
    m.train_examples.push_back(pipeline::EmPipeline::MakeExample(ds, p));
  }
  for (const auto& p : manual) {
    m.valid_examples.push_back(pipeline::EmPipeline::MakeExample(ds, p));
  }

  std::set<std::pair<int, int>> manual_set;
  for (const auto& p : manual) manual_set.insert({p.a_idx, p.b_idx});
  std::vector<matcher::ScoredPair> unlabeled;
  for (const auto& c : candidates) {
    if (!manual_set.count({c.a_idx, c.b_idx})) unlabeled.push_back(c);
  }
  matcher::PseudoLabelOptions plo;
  plo.pos_ratio = o.pl_pos_ratio >= 0.0 ? o.pl_pos_ratio : ds.PositiveRatio();
  plo.multiplier = o.pl_multiplier;
  plo.base_label_count = o.label_budget;
  matcher::PseudoLabelResult pl;
  st->Time("matcher.pseudo_label",
           [&] { pl = matcher::GeneratePseudoLabels(unlabeled, plo); });
  for (const auto& l : pl.labels) {
    data::LabeledPair p{l.a_idx, l.b_idx, l.label};
    m.train_examples.push_back(pipeline::EmPipeline::MakeExample(ds, p));
  }

  m.finetune = o.finetune;
  m.finetune.seed = o.seed * 31 + 5;
  const int base = std::max(64, o.label_budget);
  const int bs = m.finetune.batch_size;
  m.finetune.max_steps = m.finetune.epochs * ((base + bs - 1) / bs);
  // PairMatcher::Train's loop: whole epochs of ceil(n/bs) batches, capped
  // at max_steps.
  const int per_epoch =
      (static_cast<int>(m.train_examples.size()) + bs - 1) / bs;
  m.finetune_steps =
      std::min(m.finetune.max_steps, m.finetune.epochs * per_epoch);
  m.matcher = std::make_unique<matcher::PairMatcher>(m.encoder.get(),
                                                     m.vocab.get(), m.finetune);
  st->Time("matcher.train", [&] {
    SUDO_CHECK_OK(m.matcher->Train(m.train_examples, m.valid_examples));
  });

  std::vector<int> test_labels;
  for (const auto& p : ds.test) {
    m.test_examples.push_back(pipeline::EmPipeline::MakeExample(ds, p));
    test_labels.push_back(p.label);
  }
  st->Time("matcher.predict",
           [&] { m.test_probs = m.matcher->PredictProba(m.test_examples); });
  std::vector<int> preds(m.test_probs.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    preds[i] = m.test_probs[i] >= 0.5f ? 1 : 0;
  }
  m.f1 = pipeline::ComputePRF1(preds, test_labels).f1;
  m.total_s = Seconds(t0, Clock::now());

  // Blocking recall: gold pairs among the candidates / gold pairs.
  std::set<std::pair<int, int>> gold(ds.gold_matches.begin(),
                                     ds.gold_matches.end());
  size_t hit = 0;
  for (const auto& c : candidates) hit += gold.count({c.a_idx, c.b_idx});
  m.blocking_recall = gold.empty() ? 1.0
                                   : static_cast<double>(hit) /
                                         static_cast<double>(gold.size());
  return m;
}

bool SameFloats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Per-call cost of the public nn::AdamW calls on `params`, in µs
/// (median of `reps`). Steps the weights: call only when done with them.
struct OptimizerCost {
  double step_us = 0.0;
  double clip_us = 0.0;
  double zero_us = 0.0;
};

OptimizerCost TimeOptimizer(const std::vector<tensor::Tensor>& params,
                            int reps) {
  nn::AdamW opt(params, nn::AdamWOptions{});
  std::vector<double> step, clip, zero;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    opt.ZeroGrad();
    auto t1 = Clock::now();
    opt.ClipGradNorm(5.0f);
    auto t2 = Clock::now();
    opt.Step();
    auto t3 = Clock::now();
    zero.push_back(1e6 * Seconds(t0, t1));
    clip.push_back(1e6 * Seconds(t1, t2));
    step.push_back(1e6 * Seconds(t2, t3));
  }
  return {Median(step), Median(clip), Median(zero)};
}

/// The training-side per-layer metrics, shared by every workload (the
/// serve workloads train their serving model with TrainEm in set-up).
void AddTrainingLayers(const Stages& st, int pretrain_steps,
                       int finetune_steps, double blocking_recall,
                       double traced_total_s, double untraced_s,
                       const OptimizerCost& opt, Report* r) {
  const double pretrain_s = st.Get("contrastive.pretrain");
  const double train_s = st.Get("matcher.train");
  r->Add("text.vocab_build_s", st.Get("text.vocab_build"), "s");
  r->Add("text.encode_ids_s", st.Get("text.encode_ids"), "s");
  r->Add("contrastive.pretrain_s", pretrain_s, "s");
  r->Add("contrastive.steps", pretrain_steps, "count");
  r->Add("contrastive.step_ms", 1e3 * pretrain_s / std::max(1, pretrain_steps), "ms");
  r->Add("nn.embed_s", st.Get("nn.embed"), "s");
  r->Add("index.build_s", st.Get("index.build"), "s");
  r->Add("index.query_batch_s", st.Get("index.query_batch"), "s");
  r->Add("index.blocking_recall", blocking_recall, "ratio");
  r->Add("matcher.pseudo_label_s", st.Get("matcher.pseudo_label"), "s");
  r->Add("matcher.train_s", train_s, "s");
  r->Add("matcher.train_steps", finetune_steps, "count");
  r->Add("matcher.step_ms", 1e3 * train_s / std::max(1, finetune_steps), "ms");
  r->Add("matcher.predict_s", st.Get("matcher.predict"), "s");
  r->Add("nn.adamw_step_us", opt.step_us, "us");
  r->Add("nn.clip_grad_us", opt.clip_us, "us");
  r->Add("nn.zero_grad_us", opt.zero_us, "us");
  r->Add("nn.optimizer_share",
         (pretrain_steps + finetune_steps) *
             (opt.step_us + opt.clip_us + opt.zero_us) * 1e-6 / untraced_s,
         "ratio");
  r->Add("pipeline.unattributed_s", traced_total_s - st.Sum(), "s");
  r->Add("pipeline.trace_overhead_s", traced_total_s - untraced_s, "s");
}

// ---------------------------------------------------------------------------
// Serving: the stack, the request streams, the open-loop load generator.

struct ServeShape {
  int corpus_items = 50000;
  int replicas = 1;
  int query_pool = 4096;     // distinct query sequences (serve_read)
  size_t cache_entries = 8192;
};

/// One serving deployment: trained replicas sharing an embedding cache,
/// and a live corpus built by one bulk upsert.
struct ServeStack {
  TrainedModel model;  // replica 0
  std::vector<std::unique_ptr<nn::Encoder>> extra_encoders;
  std::vector<std::unique_ptr<matcher::PairMatcher>> extra_matchers;
  std::unique_ptr<index::EmbeddingCache> cache;
  std::unique_ptr<index::LiveBlockingIndex> live;
  index::BlockingIndexOptions bopts;
  std::vector<std::vector<int>> corpus_ids;  // item i's token ids
  std::vector<float> corpus_rows;            // [n, dim]
  double train_s = 0.0;                      // TrainEm wall time
};

std::vector<int> PerturbedIds(const TrainedModel& m, Rng* rng) {
  const auto& base = m.tokens[static_cast<size_t>(
      rng->UniformInt(static_cast<int>(m.tokens.size())))];
  return m.vocab->Encode(data::PerturbTokens(base, 0.3, rng));
}

/// Encodes `ids` through `encoder` (no cache) into [n, dim] rows.
std::vector<float> EncodeRows(nn::Encoder* encoder,
                              const std::vector<std::vector<int>>& ids) {
  const int d = encoder->dim();
  std::vector<float> rows(ids.size() * static_cast<size_t>(d));
  constexpr size_t kChunk = 256;
  for (size_t b = 0; b < ids.size(); b += kChunk) {
    const size_t e = std::min(ids.size(), b + kChunk);
    std::vector<std::vector<int>> chunk(ids.begin() + static_cast<long>(b),
                                        ids.begin() + static_cast<long>(e));
    encoder->EncodeNormalizedInto(chunk, rows.data() + b * static_cast<size_t>(d));
  }
  return rows;
}

/// Builds a LiveBlockingIndex holding the corpus, by one bulk upsert.
std::unique_ptr<index::LiveBlockingIndex> BuildCorpus(
    const ServeStack& s, int dim, index::EmbeddingCache* cache) {
  auto live = std::make_unique<index::LiveBlockingIndex>(dim, s.bopts, cache);
  std::vector<index::LiveItem> items(s.corpus_ids.size());
  for (size_t i = 0; i < items.size(); ++i) {
    items[i].item_id = static_cast<int>(i);
    items[i].token_key = s.corpus_ids[i];
  }
  SUDO_CHECK_OK(live->Upsert(items.data(), s.corpus_rows.data(),
                             static_cast<int>(items.size()), dim));
  return live;
}

constexpr uint64_t kServeModelInstance = 0;

const char* const kWeightsPath = ".bench_build/perfbench_replica.weights";

/// Trains the serving model on AB and builds the corpus. Everything here
/// is set-up: it happens before traffic and counts in setup_s.
std::unique_ptr<ServeStack> SetUpServing(uint64_t seed, const ServeShape& shape,
                                         Stages* st) {
  auto s = std::make_unique<ServeStack>();
  // One fixed AB instance, so every seed serves the same model; the seed
  // draws the corpus and the traffic. (Models trained on different
  // instances differ in IVF cell balance and recall by ~10%.)
  const data::EmDataset ab = MakeDataset("AB", kServeModelInstance);
  const pipeline::EmPipelineOptions o = PaperOptions();
  const bool replicate = shape.replicas > 1;
  s->model = TrainEm(ab, o, st, replicate ? kWeightsPath : "");
  s->train_s = s->model.total_s;
  for (int r = 1; r < shape.replicas; ++r) {
    auto enc = pipeline::MakeEncoder(o.encoder_kind, s->model.vocab->size(),
                                     o.encoder_dim, o.max_len, o.seed);
    SUDO_CHECK_OK(nn::LoadWeights(enc->Parameters(), kWeightsPath));
    enc->BeginTrainStep(kReplicaFinetuneEpoch, 0);
    auto pm = std::make_unique<matcher::PairMatcher>(enc.get(), s->model.vocab.get(),
                                                     s->model.finetune);
    SUDO_CHECK_OK(pm->Train(s->model.train_examples, s->model.valid_examples));
    s->extra_encoders.push_back(std::move(enc));
    s->extra_matchers.push_back(std::move(pm));
  }
  if (replicate) std::remove(kWeightsPath);

  Rng rng(SplitMix64(seed * 0xA24BAED4963EE407ULL + 17));
  s->corpus_ids.resize(static_cast<size_t>(shape.corpus_items));
  for (auto& ids : s->corpus_ids) ids = PerturbedIds(s->model, &rng);
  s->corpus_rows = EncodeRows(s->model.encoder.get(), s->corpus_ids);
  s->cache = std::make_unique<index::EmbeddingCache>(shape.cache_entries);
  // The IVF training seed is configuration, not input: EmPipeline's.
  s->bopts.ivf.seed = o.seed * 6151 + 3;
  s->live = BuildCorpus(*s, s->model.encoder->dim(), s->cache.get());
  s->model.encoder->set_embedding_cache(s->cache.get());
  for (auto& e : s->extra_encoders) e->set_embedding_cache(s->cache.get());
  return s;
}

struct Op {
  serving::RequestKind kind = serving::RequestKind::kQuery;
  int ref = -1;      // kQuery (read): query pool index; kMatch: pair index
  int item_id = -1;  // kUpsert / kDelete
  std::vector<int> ids;  // kQuery (write) / kUpsert
};

/// The serve_read stream: 75% kQuery over a Zipf(1.1) popularity on a
/// pool of distinct queries, 25% kMatch over the AB labeled pairs. Ops are
/// drawn in order from one generator, so Grow extends the same stream
/// however far it is grown and in however many steps.
class ReadStream {
 public:
  ReadStream(const ServeStack& s, const ServeShape& shape, uint64_t seed)
      : rng_(SplitMix64(seed * 0xD1B54A32D192ED03ULL + 29)) {
    queries.resize(static_cast<size_t>(shape.query_pool));
    for (auto& q : queries) q = PerturbedIds(s.model, &rng_);
    pairs = s.model.test_examples;
    pairs.insert(pairs.end(), s.model.valid_examples.begin(),
                 s.model.valid_examples.end());
    cdf_.resize(queries.size());
    double acc = 0.0;
    for (size_t i = 0; i < cdf_.size(); ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
      cdf_[i] = acc;
    }
  }

  void Grow(size_t n) {
    while (ops.size() < n) {
      Op op;
      if (rng_.Uniform() < 0.75) {
        op.kind = serving::RequestKind::kQuery;
        const double u = rng_.Uniform() * cdf_.back();
        op.ref = static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                  cdf_.begin());
        op.ref = std::min(op.ref, static_cast<int>(cdf_.size()) - 1);
      } else {
        op.kind = serving::RequestKind::kMatch;
        op.ref = rng_.UniformInt(static_cast<int>(pairs.size()));
      }
      ops.push_back(std::move(op));
    }
  }

  std::vector<std::vector<int>> queries;
  std::vector<matcher::PairExample> pairs;
  std::vector<Op> ops;

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

/// The serve_write stream: 55% kUpsert (half new ids, half replacing a
/// live id), 10% kDelete of a live id, 35% kQuery. The live set is
/// simulated while generating, so every delete names a live item. Upserts
/// are a slow latency cluster and queries/deletes a fast one; at an even
/// split the median would sit on the gap between them and jump from run
/// to run, so upserts are the majority. Grows like ReadStream.
class WriteStream {
 public:
  WriteStream(const ServeStack& s, uint64_t seed)
      : model_(&s.model), rng_(SplitMix64(seed * 0x94D049BB133111EBULL + 31)) {
    live_.resize(s.corpus_ids.size());
    for (size_t i = 0; i < live_.size(); ++i) live_[i] = static_cast<int>(i);
    next_id_ = static_cast<int>(live_.size());
  }

  void Grow(size_t n) {
    while (ops.size() < n) {
      Op op;
      const double u = rng_.Uniform();
      if (u < 0.55) {
        op.kind = serving::RequestKind::kUpsert;
        if (rng_.Bernoulli(0.5) || live_.empty()) {
          op.item_id = next_id_++;
          live_.push_back(op.item_id);
        } else {
          op.item_id = live_[static_cast<size_t>(
              rng_.UniformInt(static_cast<int>(live_.size())))];
        }
        op.ids = PerturbedIds(*model_, &rng_);
      } else if (u < 0.65 && live_.size() > 1) {
        op.kind = serving::RequestKind::kDelete;
        const size_t at = static_cast<size_t>(
            rng_.UniformInt(static_cast<int>(live_.size())));
        op.item_id = live_[at];
        live_[at] = live_.back();
        live_.pop_back();
      } else {
        op.kind = serving::RequestKind::kQuery;
        op.ids = PerturbedIds(*model_, &rng_);
      }
      ops.push_back(std::move(op));
    }
  }

  std::vector<Op> ops;

 private:
  const TrainedModel* model_;
  Rng rng_;
  std::vector<int> live_;
  int next_id_ = 0;
};

constexpr int kQueryK = 10;

/// A 64-bit fingerprint of a kQuery answer: every neighbour's id and the
/// bits of its score, in order. Two answers compare equal bit for bit
/// exactly when their digests do (up to a 2^-64 collision).
uint64_t NeighborDigest(const std::vector<index::Neighbor>& nbs) {
  uint64_t h = SplitMix64(nbs.size());
  for (const auto& nb : nbs) {
    uint32_t sim_bits = 0;
    std::memcpy(&sim_bits, &nb.sim, sizeof(sim_bits));
    h = SplitMix64(h ^ (static_cast<uint64_t>(static_cast<uint32_t>(nb.id)) << 32 |
                        sim_bits));
  }
  return h;
}

/// What the load generator keeps of each response for the output checks.
/// It is a fixed 16 bytes, so the benchmark's own memory does not grow
/// with the number of answers kept.
struct Outcome {
  bool ok = false;
  float prob = 0.0f;
  uint64_t neighbors = 0;  // NeighborDigest of the answer
};

struct PhaseResult {
  std::vector<double> latency_ms;  // completion - due time, per request
  std::vector<double> late_ms;     // send - due time, per request
  /// The part of late_ms the server's queue does not explain: send - the
  /// later of the due time and the previous Submit's return. Non-zero when
  /// the generator itself was descheduled.
  std::vector<double> stall_ms;
  double submit_block_us = 0.0;    // summed time inside Submit
  double wall_s = 0.0;
  size_t n = 0;
};

/// Open loop from one thread: request i is sent at t0 + i/rate whether or
/// not earlier ones completed, and between sends the same thread polls the
/// outstanding futures every ~50 µs and stamps each completion. Latency
/// counts from the due time, so a stall also charges the requests queued
/// behind it. One thread both generates and collects, and it sleeps rather
/// than spins: a spinning generator kept a vCPU busy and the host then
/// preempted vCPUs for 10-20 ms at a time.
PhaseResult RunOpenLoop(serving::Server* server,
                        const std::function<serving::Request(size_t)>& make,
                        size_t begin, size_t n, double rate,
                        std::vector<Outcome>* outcomes) {
  PhaseResult pr;
  pr.n = n;
  pr.latency_ms.assign(n, 0.0);
  pr.late_ms.assign(n, 0.0);
  pr.stall_ms.assign(n, 0.0);
  std::vector<std::future<serving::Response>> futures(n);
  std::vector<Clock::time_point> due(n);
  std::vector<size_t> outstanding;

  // Polling scans every outstanding future: up to the server's whole queue
  // at saturation. At most one scan per kPollPeriod, so the generator's
  // cost per request does not grow with the server's queue depth.
  constexpr auto kPollPeriod = std::chrono::microseconds(50);
  Clock::time_point next_poll = Clock::now();
  auto poll = [&] {
    const auto now = Clock::now();
    if (now < next_poll) return;
    next_poll = now + kPollPeriod;
    size_t kept = 0;
    for (size_t j : outstanding) {
      if (futures[j].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        outstanding[kept++] = j;
        continue;
      }
      const serving::Response resp = futures[j].get();
      pr.latency_ms[j] = 1e3 * Seconds(due[j], now);
      Outcome& out = (*outcomes)[begin + j];
      out.ok = resp.status.ok();
      out.prob = resp.prob;
      out.neighbors = NeighborDigest(resp.neighbors);
    }
    outstanding.resize(kept);
  };

  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  Clock::time_point free_at = t0;  // when the previous Submit returned
  for (size_t i = 0; i < n; ++i) {
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                      interval * static_cast<double>(i));
    serving::Request req = make(begin + i);
    for (poll(); Clock::now() < due[i]; poll()) {
      std::this_thread::sleep_until(
          std::min(due[i], Clock::now() + kPollPeriod));
    }
    const auto s0 = Clock::now();
    pr.late_ms[i] = 1e3 * Seconds(due[i], s0);
    pr.stall_ms[i] = std::max(0.0, 1e3 * Seconds(std::max(due[i], free_at), s0));
    futures[i] = server->Submit(std::move(req));
    free_at = Clock::now();
    pr.submit_block_us += 1e6 * Seconds(s0, free_at);
    outstanding.push_back(i);
  }
  for (poll(); !outstanding.empty(); poll()) {
    std::this_thread::sleep_for(kPollPeriod);
  }
  pr.wall_s = Seconds(t0, Clock::now());
  return pr;
}

/// The traffic of one serve run: a fixed offered rate, and saturation,
/// where requests are offered faster than the server takes them (Submit
/// blocks on the full queue) and the throughput is requests / wall time to
/// the last completion.
struct TrafficPlan {
  double fixed_rate = 2000.0;        // req/s
  double fixed_s = 8.0;              // summed over the fixed-rate blocks
  double saturation_s = 5.6;         // summed over the saturation blocks
  size_t min_fixed_requests = 1000;  // >= 10 samples beyond the p99
};

struct TrafficResult {
  PhaseResult fixed;  // the fixed-rate blocks, concatenated
  double saturation_per_s = 0.0;  // median over the saturation blocks
  size_t ops_used = 0;
};

/// Rounds of (fixed-rate block, saturation block). The host's speed drifts
/// by 10-25% over tens of seconds (memory bandwidth shared with other
/// tenants), so each figure samples several moments of the run rather than
/// one stretch of it.
constexpr int kRounds = 4;

/// Runs a warm-up, a short saturation probe that sizes the saturation
/// blocks, then `kRounds` rounds of a fixed-rate block and a saturation
/// block, each over the next slice of the op stream. `grow(n)` makes ops
/// [0, n) exist and `make(i)` builds request i. The stream grows between
/// phases, never inside one, and always as far as the next phases need, so
/// no phase is cut short however fast the server is.
TrafficResult RunTraffic(serving::Server* server, const TrafficPlan& plan,
                         const std::function<void(size_t)>& grow,
                         const std::function<serving::Request(size_t)>& make,
                         std::vector<Outcome>* outcomes) {
  TrafficResult tr;
  size_t at = 0;
  auto reserve = [&](size_t n) {
    grow(at + n);
    outcomes->resize(at + n);
  };
  auto run = [&](double rate, size_t n) {
    PhaseResult pr = RunOpenLoop(server, make, at, n, rate, outcomes);
    at += n;
    return pr;
  };
  auto count = [](double rate, double secs, size_t min_n) {
    return std::max(min_n, static_cast<size_t>(rate * secs));
  };
  constexpr double kUnpaced = 1e9;  // req/s: every request is already due

  // Warm-up (fills the cache and the per-thread workspaces), then the probe.
  const size_t warm_n = count(plan.fixed_rate, 0.1 * plan.fixed_s, 50);
  const size_t probe_n = count(plan.fixed_rate, 0.5, 100);
  reserve(warm_n + probe_n);
  run(plan.fixed_rate, warm_n);
  const PhaseResult probe = run(kUnpaced, probe_n);
  const double mu0 = static_cast<double>(probe.n) / probe.wall_s;

  const size_t fixed_n =
      count(plan.fixed_rate, plan.fixed_s, plan.min_fixed_requests) / kRounds + 1;
  const size_t sat_n = count(mu0, plan.saturation_s / kRounds, 100);
  reserve(kRounds * (fixed_n + sat_n));
  std::vector<double> mu;
  for (int r = 0; r < kRounds; ++r) {
    const PhaseResult f = run(plan.fixed_rate, fixed_n);
    tr.fixed.latency_ms.insert(tr.fixed.latency_ms.end(), f.latency_ms.begin(),
                               f.latency_ms.end());
    tr.fixed.late_ms.insert(tr.fixed.late_ms.end(), f.late_ms.begin(),
                            f.late_ms.end());
    tr.fixed.stall_ms.insert(tr.fixed.stall_ms.end(), f.stall_ms.begin(),
                             f.stall_ms.end());
    tr.fixed.submit_block_us += f.submit_block_us;
    tr.fixed.wall_s += f.wall_s;
    tr.fixed.n += f.n;
    const PhaseResult sat = run(kUnpaced, sat_n);
    mu.push_back(static_cast<double>(sat.n) / sat.wall_s);
  }
  tr.saturation_per_s = Median(mu);
  tr.ops_used = at;
  return tr;
}

/// Generator lateness above this marks the fixed phase as unreliable.
constexpr double kLateBoundMs = 5.0;

/// A request the generator sent this much later than the server's queue
/// explains was held up by the generator's own host stall (a descheduled
/// vCPU), not by the server. The unbounded tail figure serving.p99_ms
/// leaves such requests out; the bounded p50_ms keeps every request.
constexpr double kStallMs = 1.0;

/// Latencies of the fixed-rate requests the generator sent on schedule.
std::vector<double> OnSchedule(const PhaseResult& pr) {
  std::vector<double> v;
  for (size_t i = 0; i < pr.latency_ms.size(); ++i) {
    if (pr.stall_ms[i] <= kStallMs) v.push_back(pr.latency_ms[i]);
  }
  return v;
}

void AddServingLayers(const serving::ServerStats& ss,
                      const index::EmbeddingCacheStats& cs,
                      const index::LiveIndexStats& ls,
                      const TrafficResult& tr, double repeat_share,
                      double service_us, double encode_us, double query_us,
                      double upsert_us, double remove_us, double predict_us,
                      Report* r) {
  const double lookups = static_cast<double>(cs.hits + cs.misses);
  r->Add("nn.encode_us", encode_us, "us");
  r->Add("index.query_us", query_us, "us");
  r->Add("index.upsert_us", upsert_us, "us");
  r->Add("index.remove_us", remove_us, "us");
  r->Add("matcher.predict_us", predict_us, "us");
  r->Add("index.cache_hit_rate", lookups > 0 ? cs.hits / lookups : 0.0, "ratio");
  r->Add("index.query_repeat_share", repeat_share, "ratio");
  r->Add("serving.mean_batch",
         ss.batches > 0 ? static_cast<double>(ss.coalesced) / ss.batches : 0.0,
         "count");
  r->Add("serving.batches", static_cast<double>(ss.batches), "count");
  r->Add("serving.submit_block_us",
         tr.fixed.submit_block_us / std::max<size_t>(1, tr.fixed.n), "us");
  r->Add("serving.wait_share",
         1.0 - service_us / (1e3 * Mean(tr.fixed.latency_ms)), "ratio");
  r->Add("serving.p99_ms", Percentile(OnSchedule(tr.fixed), 0.99), "ms");
  r->Add("serving.generator_late_ms", Percentile(tr.fixed.late_ms, 0.99), "ms");
  r->Add("serving.generator_stalled_share",
         1.0 - static_cast<double>(OnSchedule(tr.fixed).size()) /
                   static_cast<double>(std::max<size_t>(1, tr.fixed.n)),
         "ratio");
  r->Add("index.retrains", ls.retrains, "count");
  r->Add("index.cache_erasures", static_cast<double>(ls.cache_erasures), "count");
  r->Add("index.live_items", ls.live_items, "count");
  r->Add("index.bytes_resident", static_cast<double>(ls.index_bytes_resident), "bytes");
}

/// Live item id -> embedding row, mirrored outside the index so a served
/// answer can be compared with exact search.
using RowMap = std::unordered_map<int, std::vector<float>>;

RowMap CorpusRows(const ServeStack& s, int d) {
  RowMap rows;
  for (size_t i = 0; i < s.corpus_ids.size(); ++i) {
    const float* r = s.corpus_rows.data() + i * static_cast<size_t>(d);
    rows[static_cast<int>(i)].assign(r, r + d);
  }
  return rows;
}

/// Share of the exact top-k (inner product over L2-normalized rows, i.e.
/// cosine) that the served answer `got` holds: recall@k of the ANN index.
double RecallAtK(const std::vector<index::Neighbor>& got, const float* q,
                 int d, const RowMap& rows) {
  std::vector<std::pair<float, int>> scored;
  scored.reserve(rows.size());
  for (const auto& kv : rows) {
    float dot = 0.0f;
    for (int j = 0; j < d; ++j) dot += q[j] * kv.second[static_cast<size_t>(j)];
    scored.push_back({dot, kv.first});
  }
  const size_t k = std::min(scored.size(), static_cast<size_t>(kQueryK));
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(k),
                    scored.end(), std::greater<>());
  size_t hit = 0;
  for (size_t i = 0; i < k; ++i) {
    for (const auto& nb : got) hit += nb.id == scored[i].second ? 1 : 0;
  }
  return k > 0 ? static_cast<double>(hit) / static_cast<double>(k) : 1.0;
}

/// Queries whose recall is measured per run (exact search is O(N) each).
constexpr size_t kRecallSamples = 600;

/// Median µs of encoding one flush of `rows` rows (no cache), drawn
/// cyclically from `ids`.
double TimeEncodeFlush(nn::Encoder* encoder,
                       const std::vector<std::vector<int>>& ids, int rows,
                       int reps) {
  rows = std::max(1, rows);
  std::vector<float> out(static_cast<size_t>(rows) * encoder->dim());
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    std::vector<std::vector<int>> batch;
    for (int i = 0; i < rows; ++i) {
      batch.push_back(ids[static_cast<size_t>(r * rows + i) % ids.size()]);
    }
    const auto t0 = Clock::now();
    encoder->EncodeNormalizedInto(batch, out.data());
    us.push_back(1e6 * Seconds(t0, Clock::now()));
  }
  return Median(us);
}

/// Serial single-item encode + upsert, then remove, of fresh items: the
/// per-item write costs at the current corpus size. Leaves the corpus as
/// it found it (new ids only).
void TimeSingleWrites(index::LiveBlockingIndex* live, nn::Encoder* encoder,
                      const TrainedModel& m, int first_id, int reps,
                      uint64_t seed, double* upsert_us, double* remove_us) {
  Rng rng(seed);
  const int d = encoder->dim();
  std::vector<float> row(static_cast<size_t>(d));
  std::vector<double> up, rm;
  for (int r = 0; r < reps; ++r) {
    index::LiveItem item;
    item.item_id = first_id + r;
    item.token_key = PerturbedIds(m, &rng);
    encoder->EncodeNormalizedInto({item.token_key}, row.data());
    auto t0 = Clock::now();
    SUDO_CHECK_OK(live->Upsert(&item, row.data(), 1, d));
    up.push_back(1e6 * Seconds(t0, Clock::now()));
  }
  for (int r = 0; r < reps; ++r) {
    const int id = first_id + r;
    auto t0 = Clock::now();
    SUDO_CHECK_OK(live->Remove(&id, 1));
    rm.push_back(1e6 * Seconds(t0, Clock::now()));
  }
  *upsert_us = Median(up);
  *remove_us = Median(rm);
}

// ---------------------------------------------------------------------------
// Workloads.

/// em_fastbag: EmPipeline::Run on AB then WA, over a pool of generated
/// instances of each, repeated for --seconds.
int RunEm(const Config& cfg) {
  Checks checks;
  Report report;
  // Several instances of each dataset, so the medians and the F1 describe
  // the generator's family of tables rather than one draw of it.
  const size_t instances = cfg.smoke ? 1 : 8;
  // Set-up is generating the datasets, ~35 ms, so one slow moment of the
  // host moves a single timing by tens of percent. The pool is generated
  // again after every run (and thrown away: generation is deterministic),
  // and setup_s is the median over the whole run, as p50_ms is.
  std::vector<double> setup_s;
  auto timed_generate = [&] {
    const auto t0 = Clock::now();
    std::vector<data::EmDataset> pool;  // AB 0, WA 0, AB 1, WA 1, ...
    for (size_t j = 0; j < instances; ++j) {
      pool.push_back(MakeDataset("AB", cfg.seed * 1000 + j));
      pool.push_back(MakeDataset("WA", cfg.seed * 1000 + j));
    }
    setup_s.push_back(Seconds(t0, Clock::now()));
    return pool;
  };
  const std::vector<data::EmDataset> datasets = timed_generate();

  // Every dataset runs once; then the pool repeats until the time is up.
  // Each repeat must reproduce its first run bit for bit, and at least one
  // repeat is always made: the first AB instance once more at the end.
  const pipeline::EmPipelineOptions o = PaperOptions();
  std::vector<double> run_s;
  std::vector<std::vector<double>> run_s_of(datasets.size());
  std::vector<pipeline::EmRunResult> first(datasets.size());
  auto run_one = [&](size_t j, bool repeat) {
    const auto t0 = Clock::now();
    pipeline::EmPipeline pipe(o);
    pipeline::EmRunResult r = pipe.Run(datasets[j]);
    run_s.push_back(Seconds(t0, Clock::now()));
    run_s_of[j].push_back(run_s.back());
    ++checks.attempted;
    if (repeat) {
      checks.Expect(SameFloats(r.test_probs, first[j].test_probs),
                    datasets[j].code + " run not deterministic");
    } else {
      checks.Expect(r.test.f1 >= 0.25, datasets[j].code + " test F1 below 0.25");
      first[j] = std::move(r);
    }
    timed_generate();
  };
  const auto t_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  for (size_t i = 0; i < datasets.size() || Clock::now() < t_end; ++i) {
    run_one(i % datasets.size(), i >= datasets.size());
  }
  run_one(0, true);
  double f1_sum = 0.0;
  for (const auto& r : first) f1_sum += r.test.f1;
  const double mean_run_s = Mean(run_s);

  if (!cfg.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    // AB and WA runs differ by ~10%, so the median of the mixed sample
    // would sit on the gap between the two; take each dataset's median.
    std::vector<double> ab_s, wa_s;
    for (size_t j = 0; j < datasets.size(); ++j) {
      auto& dst = datasets[j].code == "AB" ? ab_s : wa_s;
      dst.insert(dst.end(), run_s_of[j].begin(), run_s_of[j].end());
    }
    report.Add("p50_ms", 1e3 * 0.5 * (Median(ab_s) + Median(wa_s)), "ms");
    report.Add("capacity_per_s", 1.0 / mean_run_s, "1/s");
    report.Add("quality", f1_sum / static_cast<double>(first.size()), "ratio");
    return report.Print(checks);
  }

  const data::EmDataset& ab = datasets[0];
  const data::EmDataset& wa = datasets[1];
  const pipeline::EmRunResult& first_ab = first[0];
  const pipeline::EmRunResult& first_wa = first[1];
  // Traced: the same two runs, stage by stage, must reproduce the
  // untraced predictions bit for bit.
  Stages st(true);
  TrainedModel m_ab = TrainEm(ab, o, &st, "");
  TrainedModel m_wa = TrainEm(wa, o, &st, "");
  checks.attempted += 2;
  checks.Expect(SameFloats(m_ab.test_probs, first_ab.test_probs),
                "traced AB predictions differ from EmPipeline::Run");
  checks.Expect(SameFloats(m_wa.test_probs, first_wa.test_probs),
                "traced WA predictions differ from EmPipeline::Run");
  const double traced_total = m_ab.total_s + m_wa.total_s;
  const int pretrain_steps = m_ab.pretrain_steps + m_wa.pretrain_steps;
  const int finetune_steps = m_ab.finetune_steps + m_wa.finetune_steps;
  const double recall = 0.5 * (m_ab.blocking_recall + m_wa.blocking_recall);

  // A small serving probe over the AB model and its own rows, so the
  // serving-layer metrics exist here too: one replica, the write mix.
  ServeStack probe;
  Rng rng(SplitMix64(cfg.seed + 404));
  probe.model = std::move(m_ab);
  probe.corpus_ids.resize(2000);
  for (auto& ids : probe.corpus_ids) ids = PerturbedIds(probe.model, &rng);
  probe.corpus_rows = EncodeRows(probe.model.encoder.get(), probe.corpus_ids);
  probe.cache = std::make_unique<index::EmbeddingCache>(1024);
  probe.bopts.ivf.seed = o.seed * 6151 + 3;
  probe.live = BuildCorpus(probe, probe.model.encoder->dim(), probe.cache.get());
  probe.model.encoder->set_embedding_cache(probe.cache.get());
  WriteStream stream(probe, cfg.seed);
  stream.Grow(400);
  const std::vector<Op>& ops = stream.ops;
  std::vector<Outcome> outcomes(ops.size());
  TrafficResult tr;
  const serving::ServerStats ss = [&] {
    serving::ServerOptions so;
    so.live_index = probe.live.get();
    serving::Server server({{probe.model.encoder.get(), probe.model.matcher.get()}}, so);
    auto make = [&](size_t i) {
      serving::Request req;
      req.kind = ops[i].kind;
      req.ids = ops[i].ids;
      req.item_id = ops[i].item_id;
      req.k = kQueryK;
      return req;
    };
    tr.fixed = RunOpenLoop(&server, make, 0, ops.size(), 200.0, &outcomes);
    server.Shutdown();
    return server.stats();
  }();
  checks.attempted += ops.size();
  for (const Outcome& out : outcomes) checks.Expect(out.ok, "probe request failed");
  nn::Encoder* enc = probe.model.encoder.get();
  enc->set_embedding_cache(nullptr);
  double upsert_us = 0.0, remove_us = 0.0;
  TimeSingleWrites(probe.live.get(), enc, probe.model, 1 << 29, 50,
                   cfg.seed + 5, &upsert_us, &remove_us);
  std::vector<double> query_us;
  std::vector<float> row(static_cast<size_t>(enc->dim()));
  std::vector<index::Neighbor> nbs;
  for (int i = 0; i < 200; ++i) {
    enc->EncodeNormalizedInto({probe.corpus_ids[static_cast<size_t>(i)]}, row.data());
    const auto t0 = Clock::now();
    SUDO_CHECK_OK(probe.live->Query(row.data(), enc->dim(), kQueryK, &nbs));
    query_us.push_back(1e6 * Seconds(t0, Clock::now()));
  }
  std::vector<double> predict_us;
  for (size_t i = 0; i < 100 && i < probe.model.test_examples.size(); ++i) {
    const auto t0 = Clock::now();
    probe.model.matcher->PredictProba({probe.model.test_examples[i]});
    predict_us.push_back(1e6 * Seconds(t0, Clock::now()));
  }
  const double mean_batch =
      ss.batches > 0 ? static_cast<double>(ss.coalesced) / ss.batches : 1.0;
  const double encode_us = TimeEncodeFlush(
      enc, probe.corpus_ids, static_cast<int>(std::lround(mean_batch)), 100);
  AddServingLayers(ss, probe.cache->stats(), probe.live->stats(), tr, 0.0,
                   Median(query_us) + encode_us / mean_batch, encode_us,
                   Median(query_us), upsert_us, remove_us, Median(predict_us),
                   &report);

  const OptimizerCost opt = TimeOptimizer(m_wa.encoder->Parameters(), 50);
  AddTrainingLayers(st, pretrain_steps, finetune_steps, recall, traced_total,
                    Median(run_s_of[0]) + Median(run_s_of[1]), opt, &report);
  return report.Print(checks);
}

/// serve_read / serve_write.
int RunServe(const Config& cfg, bool write) {
  Checks checks;
  Report report;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ServeShape shape;
  if (cfg.smoke) {
    shape.corpus_items = 4000;
    shape.query_pool = 512;
    shape.cache_entries = 1024;
  }
  // Thread budget: server workers (one per replica) + the load generator
  // <= nproc.
  shape.replicas = write ? 1 : static_cast<int>(std::clamp<unsigned>(hw - 1, 1, 2));
  if (shape.replicas + 1 > static_cast<int>(hw)) {
    std::fprintf(stderr, "note: %u cores; load generator shares a core\n", hw);
  }
  const int setups = cfg.smoke ? 1 : 3;

  // Set-up, several times; the last stack serves. In a traced run only
  // the last set-up is traced, the others give the untraced reference.
  std::vector<double> setup_s, train_s;
  std::unique_ptr<ServeStack> s;
  Stages st(cfg.trace), untraced(false);
  for (int i = 0; i < setups; ++i) {
    s.reset();
    const auto t0 = Clock::now();
    s = SetUpServing(cfg.seed, shape, i == setups - 1 ? &st : &untraced);
    setup_s.push_back(Seconds(t0, Clock::now()));
    train_s.push_back(s->train_s);
  }
  if (cfg.trace && setups > 1) train_s.pop_back();  // traced, not a reference
  const double setup_rss_mb = PeakRssMb();

  TrafficPlan plan;
  plan.fixed_rate = write ? 75.0 : 2000.0;
  plan.fixed_s = std::max(0.5, cfg.seconds * 0.5);
  plan.saturation_s = std::max(0.5, cfg.seconds * 0.35);
  if (cfg.smoke) plan.min_fixed_requests = 100;

  std::unique_ptr<ReadStream> rs;
  std::unique_ptr<WriteStream> ws;
  if (write) {
    ws = std::make_unique<WriteStream>(*s, cfg.seed);
  } else {
    rs = std::make_unique<ReadStream>(*s, shape, cfg.seed);
  }
  const std::vector<Op>& ops = write ? ws->ops : rs->ops;
  auto grow = [&](size_t n) { write ? ws->Grow(n) : rs->Grow(n); };
  auto make = [&](size_t i) {
    const Op& op = ops[i];
    serving::Request req;
    req.kind = op.kind;
    req.k = kQueryK;
    req.item_id = op.item_id;
    if (op.kind == serving::RequestKind::kMatch) {
      req.pair = rs->pairs[static_cast<size_t>(op.ref)];
    } else if (op.ref >= 0) {
      req.ids = rs->queries[static_cast<size_t>(op.ref)];
    } else {
      req.ids = op.ids;
    }
    return req;
  };

  std::vector<serving::ModelReplica> replicas = {
      {s->model.encoder.get(), s->model.matcher.get()}};
  for (size_t r = 0; r < s->extra_encoders.size(); ++r) {
    replicas.push_back({s->extra_encoders[r].get(), s->extra_matchers[r].get()});
  }
  std::vector<Outcome> outcomes;
  TrafficResult tr;
  serving::ServerStats ss;
  {
    serving::ServerOptions so;
    so.live_index = s->live.get();
    serving::Server server(replicas, so);
    tr = RunTraffic(&server, plan, grow, make, &outcomes);
    server.Shutdown();
    ss = server.stats();
  }
  // Before the output checks, whose second corpus is the benchmark's own.
  const double peak_rss_mb = PeakRssMb();
  const double late_p99 = Percentile(tr.fixed.late_ms, 0.99);
  if (late_p99 > kLateBoundMs) {
    std::fprintf(stderr,
                 "WARNING: generator p99 lateness %.3f ms exceeds %.1f ms; "
                 "latencies of this run are suspect\n",
                 late_p99, kLateBoundMs);
  }
  std::fprintf(stderr,
               "%s: fixed %.0f req/s x %zu, p50 %.3f ms p90 %.3f ms p99 %.3f ms "
               "(on schedule: %.3f ms); saturation %.1f req/s; %zu ops; "
               "peak RSS %.1f MB after set-up, %.1f MB after traffic\n",
               cfg.workload.c_str(), plan.fixed_rate, tr.fixed.n,
               Percentile(tr.fixed.latency_ms, 0.5),
               Percentile(tr.fixed.latency_ms, 0.9),
               Percentile(tr.fixed.latency_ms, 0.99),
               Percentile(OnSchedule(tr.fixed), 0.99), tr.saturation_per_s,
               tr.ops_used, setup_rss_mb, peak_rss_mb);

  // Output checks against a serial oracle, cache detached. serve_read:
  // each distinct request answered alone by replica 0. serve_write: the op
  // stream replayed in order on a second corpus built the same way.
  const index::EmbeddingCacheStats cache_stats = s->cache->stats();
  const index::LiveIndexStats live_stats = s->live->stats();
  nn::Encoder* enc = s->model.encoder.get();
  enc->set_embedding_cache(nullptr);
  const int d = enc->dim();
  std::vector<float> row(static_cast<size_t>(d));
  std::vector<double> query_us, upsert_us, remove_us, predict_us;
  std::vector<double> service_us;  // per request, for the wait share
  double repeat_share = 0.0;
  std::vector<double> recall;
  checks.attempted = tr.ops_used;
  auto timed_encode = [&](const std::vector<int>& ids) {
    const auto t0 = Clock::now();
    enc->EncodeNormalizedInto({ids}, row.data());
    return 1e6 * Seconds(t0, Clock::now());
  };
  auto timed_query = [&](const index::LiveBlockingIndex& live,
                         std::vector<index::Neighbor>* nbs) {
    const auto t0 = Clock::now();
    const Status st_q = live.Query(row.data(), d, kQueryK, nbs);
    query_us.push_back(1e6 * Seconds(t0, Clock::now()));
    return st_q;
  };
  if (!write) {
    const RowMap rows = CorpusRows(*s, d);
    std::map<int, uint64_t> q_oracle;  // query -> NeighborDigest
    std::map<int, float> m_oracle;
    size_t n_query = 0, repeats = 0;
    for (size_t i = 0; i < tr.ops_used; ++i) {
      const Op& op = ops[i];
      const Outcome& out = outcomes[i];
      if (op.kind == serving::RequestKind::kQuery) {
        ++n_query;
        auto it = q_oracle.find(op.ref);
        if (it == q_oracle.end()) {
          std::vector<index::Neighbor> nbs;
          double us = timed_encode(rs->queries[static_cast<size_t>(op.ref)]);
          SUDO_CHECK_OK(timed_query(*s->live, &nbs));
          service_us.push_back(us + query_us.back());
          if (recall.size() < kRecallSamples) {
            recall.push_back(RecallAtK(nbs, row.data(), d, rows));
          }
          it = q_oracle.emplace(op.ref, NeighborDigest(nbs)).first;
        } else {
          ++repeats;
        }
        checks.Expect(out.ok && out.neighbors == it->second,
                      "serve_read query differs from the serial oracle");
      } else {
        auto it = m_oracle.find(op.ref);
        if (it == m_oracle.end()) {
          const auto t0 = Clock::now();
          const float p = s->model.matcher->PredictProba(
              {rs->pairs[static_cast<size_t>(op.ref)]})[0];
          predict_us.push_back(1e6 * Seconds(t0, Clock::now()));
          service_us.push_back(predict_us.back());
          it = m_oracle.emplace(op.ref, p).first;
        }
        checks.Expect(out.ok && std::memcmp(&out.prob, &it->second,
                                            sizeof(float)) == 0,
                      "serve_read match differs from the serial oracle");
      }
    }
    repeat_share = n_query > 0 ? static_cast<double>(repeats) / n_query : 0.0;
    double up = 0.0, rm = 0.0;
    TimeSingleWrites(s->live.get(), enc, s->model, 1 << 29, cfg.smoke ? 5 : 30,
                     cfg.seed + 5, &up, &rm);
    upsert_us.push_back(up);
    remove_us.push_back(rm);
  } else {
    auto oracle = BuildCorpus(*s, d, nullptr);
    RowMap rows = CorpusRows(*s, d);
    size_t n_query = 0;
    for (size_t i = 0; i < tr.ops_used; ++i) {
      const Op& op = ops[i];
      const Outcome& out = outcomes[i];
      Status st_o;
      double us = 0.0;
      if (op.kind == serving::RequestKind::kUpsert) {
        us = timed_encode(op.ids);
        index::LiveItem item;
        item.item_id = op.item_id;
        item.token_key = op.ids;
        const auto t0 = Clock::now();
        st_o = oracle->Upsert(&item, row.data(), 1, d);
        upsert_us.push_back(1e6 * Seconds(t0, Clock::now()));
        us += upsert_us.back();
        rows[op.item_id].assign(row.begin(), row.end());
        checks.Expect(out.ok && st_o.ok(), "serve_write upsert failed");
      } else if (op.kind == serving::RequestKind::kDelete) {
        const auto t0 = Clock::now();
        st_o = oracle->Remove(&op.item_id, 1);
        remove_us.push_back(1e6 * Seconds(t0, Clock::now()));
        us = remove_us.back();
        rows.erase(op.item_id);
        checks.Expect(out.ok && st_o.ok(), "serve_write delete failed");
      } else {
        us = timed_encode(op.ids);
        std::vector<index::Neighbor> nbs;
        st_o = timed_query(*oracle, &nbs);
        us += query_us.back();
        checks.Expect(out.ok && st_o.ok() && out.neighbors == NeighborDigest(nbs),
                      "serve_write query differs from the serial replay");
        if (n_query++ % 4 == 0 && recall.size() < kRecallSamples) {
          recall.push_back(RecallAtK(nbs, row.data(), d, rows));
        }
      }
      service_us.push_back(us);
    }
    const index::LiveIndexStats os = oracle->stats();
    checks.Expect(os.live_items == live_stats.live_items,
                  "serve_write corpus size differs from the serial replay");
    for (size_t i = 0; i < 50 && i < s->model.test_examples.size(); ++i) {
      const auto t0 = Clock::now();
      s->model.matcher->PredictProba({s->model.test_examples[i]});
      predict_us.push_back(1e6 * Seconds(t0, Clock::now()));
    }
  }

  if (!cfg.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Add("p50_ms", Percentile(tr.fixed.latency_ms, 0.5), "ms");
    report.Add("capacity_per_s", tr.saturation_per_s, "1/s");
    report.Add("quality", Mean(recall), "ratio");
    return report.Print(checks);
  }

  const double mean_batch =
      ss.batches > 0 ? static_cast<double>(ss.coalesced) / ss.batches : 1.0;
  const std::vector<std::vector<int>>& enc_ids =
      write ? s->corpus_ids : rs->queries;
  const double encode_us = TimeEncodeFlush(
      enc, enc_ids, static_cast<int>(std::lround(mean_batch)), 200);
  AddServingLayers(ss, cache_stats, live_stats, tr, repeat_share,
                   Mean(service_us), encode_us, Median(query_us),
                   Median(upsert_us), Median(remove_us), Median(predict_us),
                   &report);
  const double untraced_train = setups > 1 ? Median(train_s) : s->train_s;
  const OptimizerCost opt = TimeOptimizer(enc->Parameters(), 50);
  AddTrainingLayers(st, s->model.pretrain_steps, s->model.finetune_steps,
                    s->model.blocking_recall, s->train_s, untraced_train, opt,
                    &report);
  return report.Print(checks);
}

bool ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--smoke") {
      cfg->smoke = true;
    } else if ((a == "--workload") && (v = next())) {
      cfg->workload = v;
    } else if (a == "--seed" && (v = next())) {
      cfg->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      cfg->seconds = std::atof(v);
    } else if (a == "--trace" && (v = next())) {
      cfg->trace = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  return cfg->seconds > 0.0 &&
         (cfg->workload == "em_fastbag" || cfg->workload == "serve_read" ||
          cfg->workload == "serve_write");
}

}  // namespace
}  // namespace sudowoodo::perfbench

int main(int argc, char** argv) {
  using namespace sudowoodo::perfbench;
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload em_fastbag|serve_read|serve_write "
                 "--seed N --seconds S --trace 0|1 [--smoke]\n");
    return 2;
  }
  if (cfg.workload == "em_fastbag") return RunEm(cfg);
  return RunServe(cfg, cfg.workload == "serve_write");
}
