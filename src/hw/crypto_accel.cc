// ERA: 3
#include "hw/crypto_accel.h"

#include <cstring>

#include "crypto/aes128.h"
#include "crypto/hmac_sha256.h"
#include "crypto/sha256.h"

namespace tock {
namespace {

// Register words are little-endian views of the byte-string key/counter material.
void WordsToBytes(const uint32_t* words, unsigned n_words, uint8_t* out) {
  for (unsigned i = 0; i < n_words; ++i) {
    std::memcpy(out + 4 * i, &words[i], 4);
  }
}

void BytesToWords(const uint8_t* bytes, unsigned n_words, uint32_t* out) {
  for (unsigned i = 0; i < n_words; ++i) {
    std::memcpy(&out[i], bytes + 4 * i, 4);
  }
}

}  // namespace

uint32_t AesAccel::MmioRead(uint32_t offset) {
  switch (offset) {
    case AesRegs::kCtrl:
      return ctrl_.Get();
    case AesRegs::kStatus:
      return status_.Get();
    case AesRegs::kSrc:
      return src_;
    case AesRegs::kDst:
      return dst_;
    case AesRegs::kLen:
      return len_;
    default:
      if (offset >= AesRegs::kCtr0 && offset < AesRegs::kCtr0 + 16) {
        return ctr_[(offset - AesRegs::kCtr0) / 4];
      }
      return 0;  // key registers are write-only
  }
}

void AesAccel::MmioWrite(uint32_t offset, uint32_t value) {
  if (offset >= AesRegs::kKey0 && offset < AesRegs::kKey0 + 16) {
    key_[(offset - AesRegs::kKey0) / 4] = value;
    return;
  }
  if (offset >= AesRegs::kCtr0 && offset < AesRegs::kCtr0 + 16) {
    ctr_[(offset - AesRegs::kCtr0) / 4] = value;
    return;
  }
  switch (offset) {
    case AesRegs::kCtrl:
      ctrl_.Set(value);
      if (ctrl_.IsSet(AesRegs::Ctrl::kStart) && !status_.IsSet(AesRegs::Status::kBusy)) {
        Start();
      }
      return;
    case AesRegs::kIntClr:
      status_.HwModify(FieldValue<uint32_t>{value, 0});
      return;
    case AesRegs::kSrc:
      src_ = value;
      return;
    case AesRegs::kDst:
      dst_ = value;
      return;
    case AesRegs::kLen:
      len_ = value;
      return;
    default:
      return;
  }
}

void AesAccel::Start() {
  bool ctr_mode = ctrl_.IsSet(AesRegs::Ctrl::kMode);
  bool decrypt = ctrl_.IsSet(AesRegs::Ctrl::kDecrypt);
  uint32_t len = len_;
  if (len == 0 || (!ctr_mode && len % Aes128::kBlockSize != 0)) {
    status_.HwModify(AesRegs::Status::kError.Set() + AesRegs::Status::kDone.Set());
    irq_.Raise();
    return;
  }

  std::vector<uint8_t> data(len);
  if (!bus_->ReadBlock(src_, data.data(), len)) {
    status_.HwModify(AesRegs::Status::kError.Set() + AesRegs::Status::kDone.Set());
    irq_.Raise();
    return;
  }

  uint8_t key_bytes[Aes128::kKeySize];
  WordsToBytes(key_, 4, key_bytes);
  Aes128 aes(key_bytes);

  if (ctr_mode) {
    uint8_t counter[Aes128::kBlockSize];
    WordsToBytes(ctr_, 4, counter);
    aes.CtrCrypt(counter, data.data(), len);
    BytesToWords(counter, 4, ctr_);  // hardware exposes the advanced counter
  } else {
    for (uint32_t off = 0; off < len; off += Aes128::kBlockSize) {
      if (decrypt) {
        aes.DecryptBlock(&data[off]);
      } else {
        aes.EncryptBlock(&data[off]);
      }
    }
  }

  status_.HwModify(AesRegs::Status::kBusy.Set());
  result_ = std::move(data);
  uint64_t blocks = (len + Aes128::kBlockSize - 1) / Aes128::kBlockSize;
  done_.ArmAfter(blocks * CycleCosts::kAesCyclesPerBlock);
}

void AesAccel::Finish() {
  bus_->WriteBlock(dst_, result_.data(), static_cast<uint32_t>(result_.size()));
  status_.HwModify(AesRegs::Status::kBusy.Clear());
  status_.HwModify(AesRegs::Status::kDone.Set());
  irq_.Raise();
}

uint32_t ShaAccel::MmioRead(uint32_t offset) {
  switch (offset) {
    case ShaRegs::kCtrl:
      return ctrl_.Get();
    case ShaRegs::kStatus:
      return status_.Get();
    case ShaRegs::kSrc:
      return src_;
    case ShaRegs::kLen:
      return len_;
    default:
      if (offset >= ShaRegs::kDigest0 && offset < ShaRegs::kDigest0 + 32) {
        return digest_[(offset - ShaRegs::kDigest0) / 4];
      }
      return 0;  // key registers are write-only
  }
}

void ShaAccel::MmioWrite(uint32_t offset, uint32_t value) {
  if (offset >= ShaRegs::kKey0 && offset < ShaRegs::kKey0 + 32) {
    key_[(offset - ShaRegs::kKey0) / 4] = value;
    return;
  }
  switch (offset) {
    case ShaRegs::kCtrl:
      ctrl_.Set(value);
      if (ctrl_.IsSet(ShaRegs::Ctrl::kStart) && !status_.IsSet(ShaRegs::Status::kBusy)) {
        Start();
      }
      return;
    case ShaRegs::kIntClr:
      status_.HwModify(FieldValue<uint32_t>{value, 0});
      return;
    case ShaRegs::kSrc:
      src_ = value;
      return;
    case ShaRegs::kLen:
      len_ = value;
      return;
    default:
      return;
  }
}

void ShaAccel::Start() {
  std::vector<uint8_t> data(len_);
  if (len_ > 0 && !bus_->ReadBlock(src_, data.data(), len_)) {
    status_.HwModify(ShaRegs::Status::kError.Set() + ShaRegs::Status::kDone.Set());
    irq_.Raise();
    return;
  }

  uint8_t result[Sha256::kDigestSize];
  if (ctrl_.IsSet(ShaRegs::Ctrl::kMode)) {
    uint8_t key_bytes[32];
    WordsToBytes(key_, 8, key_bytes);
    HmacSha256 mac(key_bytes, sizeof(key_bytes));
    mac.Update(data.data(), data.size());
    mac.Finalize(result);
  } else {
    auto digest = Sha256::Digest(data.data(), data.size());
    std::memcpy(result, digest.data(), digest.size());
  }

  status_.HwModify(ShaRegs::Status::kBusy.Set());
  uint64_t blocks = (len_ + Sha256::kBlockSize - 1) / Sha256::kBlockSize + 1;
  BytesToWords(result, 8, result_);
  done_.ArmAfter(blocks * CycleCosts::kShaCyclesPerBlock);
}

void ShaAccel::Finish() {
  std::memcpy(digest_, result_, sizeof(digest_));
  status_.HwModify(ShaRegs::Status::kBusy.Clear());
  status_.HwModify(ShaRegs::Status::kDone.Set());
  irq_.Raise();
}

}  // namespace tock
