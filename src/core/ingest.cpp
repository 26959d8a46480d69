#include "core/ingest.h"

#include <algorithm>
#include <utility>

#include "crypto/sha256.h"

namespace alidrone::core {

namespace {
obs::MetricsRegistry& registry_for(const Auditor& auditor) {
  return auditor.params().metrics != nullptr ? *auditor.params().metrics
                                             : obs::MetricsRegistry::global();
}
}  // namespace

AuditorIngest::AuditorIngest(Auditor& auditor)
    : AuditorIngest(auditor, Config{}) {}

AuditorIngest::AuditorIngest(Auditor& auditor, Config config)
    : auditor_(auditor),
      config_(config),
      pool_(64, &registry_for(auditor)),
      queue_(std::max<std::size_t>(1, config.queue_capacity)) {
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  if (config_.verify_threads > 0) {
    verify_pool_ = std::make_unique<runtime::ThreadPool>(
        runtime::ThreadPool::Config{config_.verify_threads, "alidrone-ingest"});
  }
  views_.resize(config_.max_batch);
  obs::MetricsRegistry& reg = registry_for(auditor);
  const std::string scope = reg.instance_scope("core.ingest");
  submitted_ = &reg.counter(scope + ".submitted");
  admitted_ = &reg.counter(scope + ".admitted");
  retry_later_ = &reg.counter(scope + ".retry_later");
  duplicates_ = &reg.counter(scope + ".duplicates");
  malformed_ = &reg.counter(scope + ".malformed");
  batches_ = &reg.counter(scope + ".batches");
  committed_ = &reg.counter(scope + ".committed");
  max_batch_seen_ = &reg.gauge(scope + ".max_batch_seen");
  gate_waits_ = &reg.counter(scope + ".gate_waits");
  ingest_thread_ = std::thread([this] { ingest_loop(); });
}

AuditorIngest::~AuditorIngest() { stop(); }

void AuditorIngest::stop() {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    if (stopped_) return;
    stopped_ = true;
    paused_ = false;
  }
  pause_cv_.notify_all();
  queue_.close();  // pop() drains admitted items first — no broken promises
  if (ingest_thread_.joinable()) ingest_thread_.join();
}

void AuditorIngest::pause() {
  std::lock_guard<std::mutex> lock(pause_mu_);
  paused_ = true;
}

void AuditorIngest::resume() {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

crypto::Bytes AuditorIngest::submit(std::span<const std::uint8_t> request_frame) {
  submitted_->increment();

  const auto poa_bytes = SubmitPoaRequest::decode_view(request_frame);
  if (!poa_bytes) {
    malformed_->increment();
    PoaVerdict verdict;
    verdict.detail = "bad request";
    return verdict.encode();
  }

  const auto digest_arr = crypto::Sha256::hash(*poa_bytes);
  crypto::Bytes digest(digest_arr.begin(), digest_arr.end());
  if (auto hit = auditor_.lookup_submission(digest)) {
    duplicates_->increment();
    return *hit;
  }

  Item item;
  item.frame = pool_.acquire();
  item.frame.assign(poa_bytes->begin(), poa_bytes->end());
  item.digest = std::move(digest);
  auto future = item.reply.get_future();

  if (!queue_.try_push(std::move(item))) {
    // try_push never consumes on failure: hand the frame back and answer
    // with explicit backpressure instead of buffering without bound.
    pool_.release(std::move(item.frame));
    retry_later_->increment();
    return net::retry_later_reply();
  }
  admitted_->increment();
  return future.get();
}

crypto::Bytes AuditorIngest::submit_tesla(Auditor::WireMethod method,
                                          std::span<const std::uint8_t> frame) {
  submitted_->increment();
  const std::lock_guard<std::mutex> lock(commit_mu_);
  if (stopped_) {
    retry_later_->increment();
    return net::retry_later_reply();
  }
  admitted_->increment();
  return auditor_.handle_frame(method, frame);
}

void AuditorIngest::ingest_loop() {
  std::vector<Item> batch;
  batch.reserve(config_.max_batch);
  while (true) {
    auto first = queue_.pop();  // blocks; nullopt once closed and drained
    if (!first) break;
    // The pause gate sits between pop and process: pausing freezes the
    // pipeline with the popped item held here, so tests can fill the
    // queue to capacity deterministically. stop() lifts the gate and the
    // held item still commits — no promise is ever dropped.
    {
      std::unique_lock<std::mutex> lock(pause_mu_);
      if (paused_ && !stopped_) gate_waits_->increment();
      pause_cv_.wait(lock, [&] { return !paused_ || stopped_; });
    }
    batch.clear();
    batch.push_back(std::move(*first));
    while (batch.size() < config_.max_batch) {
      auto next = queue_.try_pop();
      if (!next) break;
      batch.push_back(std::move(*next));
    }
    process_batch(batch);
  }
}

void AuditorIngest::process_batch(std::vector<Item>& batch) {
  const std::size_t n = batch.size();
  batches_->increment();
  max_batch_seen_->set_max(static_cast<double>(n));

  // Parse zero-copy into the reused scratch views (ingest thread only —
  // sample vectors keep their capacity from batch to batch). An
  // unparseable frame gets no view and is answered at commit.
  constexpr std::size_t kNoView = static_cast<std::size_t>(-1);
  if (views_.size() < n) views_.resize(n);
  std::vector<std::size_t> view_of(n, kNoView);
  std::size_t parsed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (PoaView::parse_into(batch[i].frame, views_[parsed])) view_of[i] = parsed++;
  }

  if (config_.recorder != nullptr) {
    config_.recorder->record(obs::TraceKind::kIngestEvaluate, 0.0, n,
                             batches_->value(), "batch-evaluate");
  }
  std::vector<Auditor::PoaEvaluation> evaluations = auditor_.evaluate_batch(
      std::span<const PoaView>(views_.data(), parsed), verify_pool_.get());
  if (config_.recorder != nullptr) {
    config_.recorder->record(obs::TraceKind::kIngestCommit, 0.0, n,
                             batches_->value(), "batch-commit");
  }

  // Commit serially in admission order. The commit step's digest re-check
  // makes same-batch duplicates exactly-once.
  const std::lock_guard<std::mutex> lock(commit_mu_);
  for (std::size_t i = 0; i < n; ++i) {
    Item& item = batch[i];
    const std::size_t v = view_of[i];
    if (v == kNoView) {
      PoaVerdict verdict;
      verdict.detail = "unparseable PoA";
      item.reply.set_value(verdict.encode());
    } else {
      Auditor::SubmissionReply reply = auditor_.commit_submission(
          item.digest, views_[v], std::move(evaluations[v]));
      (reply.duplicate ? duplicates_ : committed_)->increment();
      item.reply.set_value(std::move(reply.encoded));
    }
    pool_.release(std::move(item.frame));
  }
}

void AuditorIngest::bind(net::Transport& bus, const std::string& prefix) {
  using Method = Auditor::WireMethod;
  bus.register_endpoint(prefix + ".submit_poa",
                        [this](const crypto::Bytes& in) { return submit(in); });
  for (const Method method : {Method::kTeslaAnnounce, Method::kTeslaSample,
                              Method::kTeslaDisclose, Method::kTeslaFinalize}) {
    bus.register_endpoint(prefix + "." + Auditor::method_suffix(method),
                          [this, method](const crypto::Bytes& in) {
                            return submit_tesla(method, in);
                          });
  }
}

AuditorIngest::Counters AuditorIngest::counters() const {
  Counters c;
  c.submitted = submitted_->value();
  c.admitted = admitted_->value();
  c.retry_later = retry_later_->value();
  c.duplicates = duplicates_->value();
  c.malformed = malformed_->value();
  c.batches = batches_->value();
  c.committed = committed_->value();
  c.max_batch_seen = static_cast<std::uint64_t>(max_batch_seen_->value());
  c.gate_waits = gate_waits_->value();
  return c;
}

}  // namespace alidrone::core
