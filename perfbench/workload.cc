#include "workload.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

Stream::Stream(uint64_t seed, uint64_t salt)
    : engine_(seed * 0x9E3779B97F4A7C15ULL + salt)
{
}

double
Stream::uniform()
{
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

size_t
Stream::below(size_t n)
{
    return std::min(static_cast<size_t>(uniform() * static_cast<double>(n)),
                    n - 1);
}

double
Stream::exponential(double rate)
{
    return -std::log1p(-uniform()) / rate;
}

std::vector<size_t>
stratifiedZipfOrder(const std::vector<int> &types, double skew,
                    uint64_t seed)
{
    const size_t n = types.size();
    std::map<int, std::vector<size_t>> members;
    for (size_t i = 0; i < n; ++i)
        members[types[i]].push_back(i);

    // Fisher-Yates per label, one stream for the whole permutation.
    Stream stream(seed, 0x5A1F);
    for (auto &[label, list] : members)
        for (size_t i = list.size(); i > 1; --i)
            std::swap(list[i - 1], list[stream.below(i)]);

    std::vector<double> weight(n);
    double total = 0.0;
    for (size_t r = 0; r < n; ++r)
        total += weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), skew);

    std::map<int, double> assigned;
    std::map<int, size_t> used;
    std::vector<size_t> order;
    double cumulative = 0.0;
    for (size_t r = 0; r < n; ++r) {
        cumulative += weight[r] / total;
        int best = 0;
        double bestLag = -1e300;
        for (const auto &[label, list] : members) {
            if (used[label] == list.size())
                continue;
            const double itemShare = static_cast<double>(list.size()) /
                static_cast<double>(n);
            const double lag = itemShare * cumulative - assigned[label];
            if (lag > bestLag) {
                bestLag = lag;
                best = label;
            }
        }
        order.push_back(members[best][used[best]++]);
        assigned[best] += weight[r] / total;
    }
    return order;
}

/** Deck size of a Zipf draw: the rarest of 42 items still appears. */
constexpr size_t kZipfDeck = 1000;

QueryDraw
QueryDraw::uniform(size_t items)
{
    QueryDraw draw;
    draw.shares_.assign(items, 1.0 / static_cast<double>(items));
    draw.buildDeck(items);
    return draw;
}

QueryDraw
QueryDraw::zipf(const std::vector<int> &types, double skew, uint64_t seed)
{
    QueryDraw draw;
    const auto order = stratifiedZipfOrder(types, skew, seed);
    const size_t n = types.size();
    double total = 0.0;
    for (size_t r = 0; r < n; ++r)
        total += 1.0 / std::pow(static_cast<double>(r + 1), skew);
    draw.shares_.assign(n, 0.0);
    for (size_t r = 0; r < n; ++r)
        draw.shares_[order[r]] =
            1.0 / std::pow(static_cast<double>(r + 1), skew) / total;
    draw.buildDeck(kZipfDeck);
    return draw;
}

void
QueryDraw::buildDeck(size_t size)
{
    const size_t n = shares_.size();
    std::vector<size_t> copies(n);
    std::vector<std::pair<double, size_t>> remainders;
    size_t dealt = 0;
    for (size_t i = 0; i < n; ++i) {
        const double exact = shares_[i] * static_cast<double>(size);
        copies[i] = static_cast<size_t>(exact);
        dealt += copies[i];
        remainders.push_back({exact - static_cast<double>(copies[i]), i});
    }
    std::stable_sort(remainders.begin(), remainders.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    for (size_t k = 0; dealt < size; ++k, ++dealt)
        ++copies[remainders[k % n].second];
    deck_.clear();
    for (size_t i = 0; i < n; ++i)
        deck_.insert(deck_.end(), copies[i], i);
}

double
QueryDraw::share(size_t item) const
{
    return shares_.at(item);
}

Deck::Deck(const QueryDraw &draw, uint64_t seed, uint64_t salt)
    : cards_(draw.deck()), position_(cards_.size()), stream_(seed, salt)
{
}

size_t
Deck::next()
{
    if (position_ == cards_.size()) {
        for (size_t i = cards_.size(); i > 1; --i)
            std::swap(cards_[i - 1], cards_[stream_.below(i)]);
        position_ = 0;
    }
    return cards_[position_++];
}

std::vector<Arrival>
poissonSchedule(double rate, double seconds, Deck &deck, Stream &gaps)
{
    std::vector<Arrival> schedule;
    double due = gaps.exponential(rate);
    while (due < seconds) {
        schedule.push_back({due, deck.next()});
        due += gaps.exponential(rate);
    }
    return schedule;
}

} // namespace perfbench
