#include "data/movie_generator.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>

#include "common/string_util.h"

namespace hera {

namespace {

// ---- Word pools -----------------------------------------------------

const char* const kFirstNames[] = {
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael",
    "Linda", "David", "Elizabeth", "William", "Barbara", "Richard", "Susan",
    "Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Christopher",
    "Lisa", "Daniel", "Nancy", "Matthew", "Betty", "Anthony", "Margaret",
    "Mark", "Sandra", "Donald", "Ashley", "Steven", "Kimberly", "Paul",
    "Emily", "Andrew", "Donna", "Joshua", "Michelle", "Kenneth", "Carol",
    "Kevin", "Amanda", "Brian", "Dorothy", "George", "Melissa", "Timothy",
    "Deborah", "Ronald", "Stephanie", "Edward", "Rebecca", "Jason", "Sharon",
    "Jeffrey", "Laura", "Ryan", "Cynthia", "Jacob", "Kathleen", "Gary", "Amy",
};

const char* const kLastNames[] = {
    "Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
    "Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
    "Wilson", "Anderson", "Thomas", "Taylor", "Moore", "Jackson", "Martin",
    "Lee", "Perez", "Thompson", "White", "Harris", "Sanchez", "Clark",
    "Ramirez", "Lewis", "Robinson", "Walker", "Young", "Allen", "King",
    "Wright", "Scott", "Torres", "Nguyen", "Hill", "Flores", "Green",
    "Adams", "Nelson", "Baker", "Hall", "Rivera", "Campbell", "Mitchell",
    "Carter", "Roberts", "Gomez", "Phillips", "Evans", "Turner", "Diaz",
    "Parker", "Cruz", "Edwards", "Collins", "Reyes", "Stewart", "Morris",
    "Morales", "Murphy", "Cook", "Rogers", "Gutierrez", "Ortiz", "Morgan",
    "Cooper", "Peterson", "Bailey", "Reed", "Kelly", "Howard", "Ramos",
    "Kim", "Cox", "Ward", "Richardson",
};

const char* const kTitleWords[] = {
    "Shadow",   "Empire",  "Return",  "Night",    "Dawn",     "Silent",
    "Crimson",  "Golden",  "Lost",    "Hidden",   "Eternal",  "Broken",
    "Rising",   "Falling", "Last",    "First",    "Dark",     "Bright",
    "Winter",   "Summer",  "Autumn",  "Spring",   "River",    "Mountain",
    "Ocean",    "Desert",  "Forest",  "City",     "Kingdom",  "Republic",
    "Dynasty",  "Legacy",  "Promise", "Secret",   "Mystery",  "Journey",
    "Voyage",   "Quest",   "Escape",  "Pursuit",  "Revenge",  "Redemption",
    "Betrayal", "Honor",   "Glory",   "Destiny",  "Fortune",  "Fate",
    "Storm",    "Thunder", "Lightning", "Rain",   "Snow",     "Fire",
    "Ice",      "Stone",   "Iron",    "Steel",    "Silver",   "Diamond",
    "Crystal",  "Phantom", "Ghost",   "Spirit",   "Soul",     "Heart",
    "Mind",     "Dream",   "Memory",  "Echo",     "Whisper",  "Scream",
    "Song",     "Dance",   "Symphony", "Requiem", "Ballad",   "Anthem",
    "Crown",    "Throne",  "Sword",   "Shield",   "Arrow",    "Blade",
    "Wolf",     "Raven",   "Falcon",  "Tiger",    "Dragon",   "Serpent",
    "Lion",     "Eagle",   "Hawk",    "Fox",      "Bear",     "Panther",
    "Horizon",  "Frontier", "Boundary", "Threshold", "Gateway", "Passage",
    "Labyrinth", "Paradox", "Enigma",  "Cipher",   "Oracle",  "Prophecy",
    "Covenant", "Testament", "Chronicle", "Saga",  "Legend",  "Myth",
    "Twilight", "Midnight", "Daybreak", "Eclipse", "Solstice", "Equinox",
};

const char* const kGenres[] = {
    "Drama", "Comedy", "Action", "Thriller", "Horror", "Romance", "Sci-Fi",
    "Fantasy", "Documentary", "Animation", "Crime", "Western", "Musical",
    "Mystery", "Adventure", "War", "Biography", "History", "Sport", "Noir",
    "Family", "Superhero", "Disaster", "Satire",
};

const char* const kCountries[] = {
    "USA", "UK", "France", "Germany", "Italy", "Spain", "Japan", "China",
    "India", "Brazil", "Canada", "Australia", "Mexico", "Russia", "Sweden",
    "Norway", "Denmark", "Poland", "Netherlands", "South Korea", "Ireland",
    "Argentina", "Chile", "Portugal", "Greece", "Turkey", "Egypt", "Israel",
    "Thailand", "Vietnam", "Indonesia", "Philippines", "New Zealand",
    "South Africa", "Nigeria", "Morocco", "Finland", "Iceland", "Austria",
    "Belgium",
};

const char* const kLanguages[] = {
    "English", "French", "German", "Italian", "Spanish", "Japanese",
    "Mandarin", "Hindi", "Portuguese", "Russian", "Swedish", "Korean",
    "Polish", "Dutch", "Danish", "Norwegian", "Finnish", "Greek", "Turkish",
    "Arabic", "Hebrew", "Thai", "Vietnamese", "Tagalog", "Cantonese",
    "Bengali", "Tamil", "Urdu", "Czech", "Hungarian",
};

const char* const kStudios[] = {
    "Paramount Pictures", "Universal Studios", "Warner Bros", "Columbia",
    "Metro Goldwyn", "United Artists", "Lionsgate Films", "Focus Features",
    "Miramax", "New Line Cinema", "Orion Pictures", "Castle Rock",
    "Summit Entertainment", "Legendary Pictures", "Amblin Entertainment",
    "Working Title", "StudioCanal", "Gaumont", "Toho Studios", "Shaw Brothers",
    "Riverlight Media Group", "Ironwood Productions", "Bluegate Features",
    "Stonebridge Entertainment", "Northbank Cinema", "Redhollow Studios",
    "Silverlake Filmworks", "Eastgate Productions", "Oakfield Pictures",
    "Greymont Media", "Harborview Films", "Westwind Entertainment",
    "Copperfield Studios", "Brightwater Productions", "Thornhill Cinema",
    "Maplewood Features", "Clearbrook Media", "Ashford Filmworks",
    "Pinecrest Entertainment", "Duskmoor Productions", "Larkspur Studios",
    "Wolfram Media Group", "Kestrel Features", "Saltmarsh Cinema",
    "Hollowpine Films", "Briarcliff Entertainment", "Tidewater Studios",
    "Emberlight Productions", "Foxglove Media", "Windmere Features",
    "Cinderpeak Films", "Moonharbor Studios", "Galehurst Productions",
    "Rookwood Entertainment", "Sablegate Media", "Quillshore Features",
    "Vantage Point Cinema", "Drift Canyon Films", "Lanternbay Studios",
    "Corvid Ridge Productions",
};

const char* const kKeywords[] = {
    "love", "war", "betrayal", "family", "revenge", "friendship", "power",
    "justice", "survival", "identity", "loyalty", "sacrifice", "greed",
    "redemption", "freedom", "destiny", "courage", "obsession", "ambition",
    "jealousy", "honor", "madness", "faith", "corruption", "exile",
    "memory", "isolation", "rebellion", "duty", "forgiveness", "truth",
    "deception", "legacy", "innocence", "fate", "pride", "grief", "hope",
    "vengeance", "secrets",
};

template <size_t N>
std::string Pick(Rng* rng, const char* const (&pool)[N]) {
  return pool[rng->Uniform(N)];
}

std::string PersonName(Rng* rng) {
  return Pick(rng, kFirstNames) + " " + Pick(rng, kLastNames);
}

std::string FormatDouble(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

/// One synthesized movie entity: a value per concept_id.
struct MovieEntity {
  std::array<Value, kNumMovieConcepts> concept_value;
};

MovieEntity SynthesizeEntity(Rng* rng) {
  MovieEntity e;
  // Title: 2-4 pool words.
  std::string first_title_word;
  {
    size_t words = 2 + rng->Uniform(3);
    std::string title;
    for (size_t i = 0; i < words; ++i) {
      if (i > 0) title += " ";
      std::string w = Pick(rng, kTitleWords);
      if (i == 0) first_title_word = w;
      title += w;
    }
    e.concept_value[kTitle] = Value(title);
  }
  // The release "year" is rendered as a full ISO date, as DBPedia and
  // most catalogs store it. Bare 4-digit years are pathological for
  // q-gram similarity: any two same-decade years share half their
  // bigrams and would flood the index with spurious pairs.
  int year = 1920 + static_cast<int>(rng->Uniform(104));
  {
    char date[16];
    std::snprintf(date, sizeof(date), "%04d-%02d-%02d", year,
                  static_cast<int>(1 + rng->Uniform(12)),
                  static_cast<int>(1 + rng->Uniform(28)));
    e.concept_value[kYear] = Value(std::string(date));
  }
  // People frequently hold several roles on one film (director who
  // writes or produces, director acting in their own movie). These
  // correlations matter: they create fields of one entity whose values
  // are similar across *different* attributes — the "multiple field"
  // case that exercises HERA's bound divergence, bipartite matching,
  // and schema voting.
  std::string director = PersonName(rng);
  e.concept_value[kDirector] = Value(director);
  {
    size_t n = 2 + rng->Uniform(2);
    std::string cast;
    bool director_acts = rng->Bernoulli(0.4);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) cast += ", ";
      cast += (i == 0 && director_acts) ? director : PersonName(rng);
    }
    e.concept_value[kCast] = Value(cast);
  }
  {
    // Multi-label genres (2-3), as real catalogs tag them; single
    // labels would make every same-genre record pair a value match.
    std::string genre = Pick(rng, kGenres);
    size_t extra = 1 + rng->Uniform(2);
    for (size_t i = 0; i < extra; ++i) {
      genre.append("/").append(Pick(rng, kGenres));
    }
    e.concept_value[kGenre] = Value(genre);
  }
  {
    std::string country = Pick(rng, kCountries);
    if (rng->Bernoulli(0.35)) {
      country.append(" / ").append(Pick(rng, kCountries));
    }
    e.concept_value[kCountry] = Value(country);
  }
  e.concept_value[kLanguage] = Value(Pick(rng, kLanguages));
  e.concept_value[kRuntime] = Value(static_cast<double>(75 + rng->Uniform(126)));
  e.concept_value[kWriter] =
      Value(rng->Bernoulli(0.35) ? director : PersonName(rng));
  e.concept_value[kStudio] = Value(Pick(rng, kStudios));
  e.concept_value[kRating] =
      Value(FormatDouble(1.0 + rng->UniformDouble() * 8.9, 1));
  e.concept_value[kGross] = Value(
      static_cast<double>((1 + rng->Uniform(9999)) * 100000ull));
  e.concept_value[kBudget] = Value(
      static_cast<double>((1 + rng->Uniform(2999)) * 100000ull));
  e.concept_value[kReviewCount] =
      Value(static_cast<double>(10 + rng->Uniform(4991)));
  {
    std::string kw = Pick(rng, kKeywords);
    kw.append(" ").append(Pick(rng, kKeywords));
    if (rng->Bernoulli(0.5)) kw.append(" ").append(Pick(rng, kKeywords));
    e.concept_value[kPlotKeywords] = Value(kw);
  }
  {
    // Tagline: 4-6 words of promotional copy; distinctive free text.
    std::string tagline = "the";
    size_t words = 3 + rng->Uniform(3);
    for (size_t i = 0; i < words; ++i) {
      tagline += " ";
      tagline += rng->Bernoulli(0.5) ? Pick(rng, kKeywords)
                                     : ToLower(Pick(rng, kTitleWords));
    }
    e.concept_value[kTagline] = Value(tagline);
  }
  {
    char premiere[16];
    std::snprintf(premiere, sizeof(premiere), "%04d-%02d-%02d", year,
                  static_cast<int>(1 + rng->Uniform(12)),
                  static_cast<int>(1 + rng->Uniform(28)));
    e.concept_value[kReleaseDate] = Value(std::string(premiere));
  }
  e.concept_value[kProducer] =
      Value(rng->Bernoulli(0.25) ? director : PersonName(rng));
  e.concept_value[kComposer] = Value(PersonName(rng));
  e.concept_value[kCinematographer] = Value(PersonName(rng));
  e.concept_value[kEditor] = Value(PersonName(rng));
  // Compact awards notation ("7W-25N"); the verbose "7 wins 25
  // nominations" template makes every awards pair gram-similar.
  e.concept_value[kAwards] =
      Value(std::to_string(rng->Uniform(12)) + "W-" +
            std::to_string(rng->Uniform(30)) + "N");
  // The franchise carries the movie's leading title word ("Shadow
  // Saga" for "Shadow Empire") — partially similar to the title, as
  // franchise names are in reality.
  e.concept_value[kFranchise] =
      Value(first_title_word + std::string(" ") +
            (rng->Bernoulli(0.5) ? "Saga" : "Trilogy"));
  return e;
}

}  // namespace

std::vector<SourceProfile> StandardMovieProfiles() {
  return {
      {"imdb",
       {{"title", kTitle},
        {"year", kYear},
        {"director", kDirector},
        {"cast", kCast},
        {"genre", kGenre},
        {"runtime", kRuntime},
        {"country", kCountry},
        {"rating", kRating},
        {"budget", kBudget},
        {"tagline", kTagline}}},
      {"dbpedia",
       {{"name", kTitle},
        {"releaseYear", kYear},
        {"directedBy", kDirector},
        {"starring", kCast},
        {"category", kGenre},
        {"country", kCountry},
        {"runtime", kRuntime},
        {"language", kLanguage},
        {"writer", kWriter},
        {"studio", kStudio},
        {"producer", kProducer},
        {"composer", kComposer}}},
      {"catalog",
       {{"movie_title", kTitle},
        {"release_year", kYear},
        {"helmer", kDirector},
        {"lead_actors", kCast},
        {"genre_tags", kGenre},
        {"origin_country", kCountry},
        {"distributor", kStudio},
        {"gross", kGross},
        {"awards", kAwards},
        {"editor", kEditor},
        {"release_date", kReleaseDate}}},
      {"reviews",
       {{"film", kTitle},
        {"yr", kYear},
        {"director_name", kDirector},
        {"stars", kCast},
        {"runtime_minutes", kRuntime},
        {"country", kCountry},
        {"score", kRating},
        {"review_count", kReviewCount},
        {"keywords", kPlotKeywords},
        {"cinematographer", kCinematographer},
        {"franchise", kFranchise}}},
  };
}

Dataset GenerateMovieDataset(const MovieGeneratorConfig& config) {
  assert(config.num_entities >= 1);
  assert(config.num_records >= config.num_entities);
  Rng rng(config.seed);
  Dataset ds;

  std::vector<SourceProfile> profiles =
      config.profiles.empty() ? StandardMovieProfiles() : config.profiles;

  // Register schemas and the canonical attribute map.
  std::vector<uint32_t> schema_ids;
  for (const SourceProfile& p : profiles) {
    std::vector<std::string> names;
    names.reserve(p.attrs.size());
    for (const auto& [attr, concept_id] : p.attrs) {
      (void)concept_id;
      names.push_back(attr);
    }
    uint32_t sid = ds.schemas().Register(Schema(p.name, std::move(names)));
    schema_ids.push_back(sid);
    for (uint32_t i = 0; i < p.attrs.size(); ++i) {
      ds.canonical_attr()[AttrRef{sid, i}] = p.attrs[i].second;
    }
  }

  // Synthesize entities.
  std::vector<MovieEntity> entities;
  entities.reserve(config.num_entities);
  for (size_t i = 0; i < config.num_entities; ++i) {
    entities.push_back(SynthesizeEntity(&rng));
  }

  // Assign records to entities: one guaranteed record each, remainder
  // skewed (popular movies appear in more sources).
  std::vector<uint32_t> record_entity;
  record_entity.reserve(config.num_records);
  for (size_t e = 0; e < config.num_entities; ++e) {
    record_entity.push_back(static_cast<uint32_t>(e));
  }
  for (size_t r = config.num_entities; r < config.num_records; ++r) {
    record_entity.push_back(static_cast<uint32_t>(
        rng.Zipf(config.num_entities, config.entity_skew)));
  }
  rng.Shuffle(&record_entity);

  // Emit records through randomly chosen profiles.
  for (uint32_t entity : record_entity) {
    size_t pi = rng.Uniform(profiles.size());
    const SourceProfile& profile = profiles[pi];
    std::vector<Value> values;
    values.reserve(profile.attrs.size());
    for (const auto& [attr, concept_id] : profile.attrs) {
      (void)attr;
      if (rng.Bernoulli(config.null_prob)) {
        values.emplace_back();  // Null.
        continue;
      }
      values.push_back(
          CorruptValue(entities[entity].concept_value[concept_id], &rng,
                       config.corruption));
    }
    ds.AddRecord(schema_ids[pi], std::move(values));
    ds.entity_of().push_back(entity);
  }
  return ds;
}

}  // namespace hera
