//===- HostSpeed.cpp - A fixed reference workload for host speed ----------===//

#include "HostSpeed.h"

#include "Workloads.h"

#include <iterator>
#include <map>
#include <memory>
#include <regex>

using namespace perfbench;

namespace {

uint64_t xorshift(uint64_t &S) {
  S ^= S << 13;
  S ^= S >> 7;
  S ^= S << 17;
  return S;
}

struct Node {
  virtual ~Node() = default;
  virtual uint64_t eval(std::map<std::string, uint64_t> &Env) const = 0;
};

struct Literal final : Node {
  uint64_t V;
  explicit Literal(uint64_t V) : V(V) {}
  uint64_t eval(std::map<std::string, uint64_t> &) const override { return V; }
};

struct Variable final : Node {
  std::string Name;
  explicit Variable(std::string Name) : Name(std::move(Name)) {}
  uint64_t eval(std::map<std::string, uint64_t> &Env) const override {
    return Env[Name];
  }
};

struct Binary final : Node {
  unsigned Op;
  std::unique_ptr<Node> L, R;
  Binary(unsigned Op, std::unique_ptr<Node> L, std::unique_ptr<Node> R)
      : Op(Op), L(std::move(L)), R(std::move(R)) {}
  uint64_t eval(std::map<std::string, uint64_t> &Env) const override {
    const uint64_t X = L->eval(Env), Y = R->eval(Env);
    switch (Op) {
    case 0:
      return X + Y;
    case 1:
      return X * Y;
    case 2:
      return X ^ Y;
    default:
      return X > Y ? X - Y : Y - X;
    }
  }
};

std::unique_ptr<Node> makeTree(unsigned Depth, uint64_t &S) {
  const uint64_t R = xorshift(S);
  if (Depth == 0 || R % 5 == 0) {
    if (R & 8)
      return std::make_unique<Literal>(R >> 40);
    return std::make_unique<Variable>("v" + std::to_string(R % 97));
  }
  auto L = makeTree(Depth - 1, S);
  return std::make_unique<Binary>(static_cast<unsigned>(R % 4), std::move(L),
                                  makeTree(Depth - 1, S));
}

} // namespace

ReferenceWork::ReferenceWork() {
  uint64_t S = 0x2545f4914f6cdd1dULL;
  for (unsigned I = 0; I != 2000; ++I) {
    Text += static_cast<char>('a' + xorshift(S) % 26);
    if (I % 17 == 0)
      Text += "_123 ";
    if (I % 31 == 0)
      Text += "Abcd42 abcdcdeef ";
  }
}

double ReferenceWork::chunk() {
  static const char *const Patterns[] = {
      "([a-z]+)_([0-9]+)", "(ab|cd)*e+f?", "[A-Z][a-z]{2,5}\\d+"};
  const double T0 = threadCpuS();
  uint64_t Sum = 0;
  for (const char *P : Patterns) {
    const std::regex Re(P);
    Sum += static_cast<uint64_t>(std::distance(
        std::sregex_iterator(Text.begin(), Text.end(), Re),
        std::sregex_iterator()));
  }
  uint64_t S = 0x9e3779b97f4a7c15ULL;
  std::map<std::string, uint64_t> Env;
  for (unsigned I = 0; I != 97; ++I)
    Env["v" + std::to_string(I)] = xorshift(S);
  for (unsigned I = 0; I != 40; ++I)
    Sum += makeTree(7, S)->eval(Env);
  const double CpuS = threadCpuS() - T0;
  if (!HaveSum)
    FirstSum = Sum;
  Failed |= Sum != FirstSum;
  HaveSum = true;
  return CpuS;
}
