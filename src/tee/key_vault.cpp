#include "tee/key_vault.h"

namespace alidrone::tee {

KeyVault::KeyVault(crypto::RsaKeyPair kp, obs::MetricsRegistry* registry)
    : priv_(std::move(kp.priv)),
      pub_(std::move(kp.pub)),
      plan_mu_(std::make_unique<std::mutex>()),
      plan_(std::make_unique<crypto::RsaSigningPlan>(priv_)) {
  obs::MetricsRegistry& reg =
      registry != nullptr ? *registry : obs::MetricsRegistry::global();
  const std::string scope = reg.instance_scope("tee.key_vault");
  private_ops_ = &reg.counter(scope + ".private_ops");
  blinding_refreshes_ = &reg.counter(scope + ".blinding_refreshes");
  crt_fault_fallbacks_ = &reg.counter(scope + ".crt_fault_fallbacks");
}

KeyVault KeyVault::manufacture(std::size_t key_bits, crypto::RandomSource& rng,
                               obs::MetricsRegistry* registry) {
  return KeyVault(crypto::generate_rsa_keypair(key_bits, rng), registry);
}

crypto::Bytes KeyVault::sign(std::span<const std::uint8_t> message,
                             crypto::HashAlgorithm hash) const {
  private_ops_->increment();
  return crypto::rsa_sign(priv_, message, hash);
}

crypto::Bytes KeyVault::sign_fast(std::span<const std::uint8_t> message,
                                  crypto::HashAlgorithm hash,
                                  crypto::RandomSource& rng) const {
  const std::lock_guard<std::mutex> lock(*plan_mu_);
  // Publish the plan's per-signature deltas to the registry — plan_stats()
  // reads only the registry, so the plan's internal tallies never become a
  // second externally visible source of truth.
  const std::uint64_t ops_before = plan_->private_ops();
  const std::uint64_t refreshes_before = plan_->blinding_refreshes();
  const std::uint64_t fallbacks_before = plan_->crt_fault_fallbacks();
  crypto::Bytes signature = plan_->sign(message, hash, rng);
  private_ops_->add(plan_->private_ops() - ops_before);
  blinding_refreshes_->add(plan_->blinding_refreshes() - refreshes_before);
  crt_fault_fallbacks_->add(plan_->crt_fault_fallbacks() - fallbacks_before);
  return signature;
}

KeyVault::PlanStats KeyVault::plan_stats() const {
  return {private_ops_->value(), blinding_refreshes_->value(),
          crt_fault_fallbacks_->value()};
}

std::optional<crypto::Bytes> KeyVault::decrypt(
    std::span<const std::uint8_t> ciphertext) const {
  private_ops_->increment();
  return crypto::rsa_decrypt(priv_, ciphertext);
}

}  // namespace alidrone::tee
