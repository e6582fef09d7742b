#include "spans.h"

#include <cstdio>

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

Span::Span(SpanTrack* track, const char* name, uint64_t id)
    : track_(track)
{
    if (!track_)
        return;
    SpanRecord rec;
    rec.name = name;
    rec.id = id;
    rec.parent = track_->open_.empty() ? -1 : track_->open_.back();
    index_ = static_cast<int32_t>(track_->spans_.size());
    track_->spans_.push_back(rec);
    track_->open_.push_back(index_);
    track_->spans_[index_].startNs = nowNs();
}

Span::~Span()
{
    if (!track_)
        return;
    track_->spans_[index_].endNs = nowNs();
    track_->open_.pop_back();
}

SpanTrack*
SpanRecorder::newTrack()
{
    std::lock_guard<std::mutex> lock(mu_);
    tracks_.push_back(
        std::make_unique<SpanTrack>(static_cast<int>(tracks_.size())));
    return tracks_.back().get();
}

std::map<std::string, SpanTotals>
SpanRecorder::totals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, SpanTotals> out;
    for (const auto& track : tracks_) {
        const std::vector<SpanRecord>& spans = track->spans();
        std::vector<int64_t> childNs(spans.size(), 0);
        for (const SpanRecord& s : spans)
            if (s.parent >= 0)
                childNs[s.parent] += s.endNs - s.startNs;
        for (size_t i = 0; i < spans.size(); i++) {
            SpanTotals& t = out[spans[i].name];
            int64_t dur = spans[i].endNs - spans[i].startNs;
            t.count++;
            t.totalNs += dur;
            t.selfNs += dur - childNs[i];
        }
    }
    return out;
}

bool
SpanRecorder::writeJsonLines(const std::string& path,
                             const std::vector<const SpanRecorder*>& recorders)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    int trackBase = 0;
    for (const SpanRecorder* rec : recorders) {
        std::lock_guard<std::mutex> lock(rec->mu_);
        for (const auto& track : rec->tracks_) {
            for (const SpanRecord& s : track->spans()) {
                const char* parent =
                    s.parent >= 0 ? track->spans()[s.parent].name : "";
                std::fprintf(f,
                             "{\"name\":\"%s\",\"id\":%llu,\"track\":%d,"
                             "\"parent\":\"%s\",\"start_us\":%.3f,"
                             "\"dur_us\":%.3f}\n",
                             s.name, static_cast<unsigned long long>(s.id),
                             trackBase + track->tid(), parent,
                             s.startNs / 1e3, (s.endNs - s.startNs) / 1e3);
            }
        }
        trackBase += static_cast<int>(rec->tracks_.size());
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
