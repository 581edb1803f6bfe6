// Package corpus generates the synthetic table corpora that stand in for the
// WikiTable and GitTables datasets of the paper's evaluation (see DESIGN.md
// §1 for the substitution rationale). It provides a semantic-type registry
// with per-type value generators, table generators with controllable
// metadata informativeness, dataset splits, and the WikiTable-Sk
// retained-type tuning used in §6.6.
package corpus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// NullType is the background label assigned to columns without any semantic
// type ("type: null" in §6.1.1).
const NullType = "type:null"

// Type describes one semantic type: how its values look and what metadata
// (names, comments) tenants plausibly attach to columns of that type.
type Type struct {
	// Name is the canonical type identifier, e.g. "phone_number".
	Name string
	// Category groups related types; ambiguous column names are shared
	// within a category (e.g. "num" within "numeric_id").
	Category string
	// ColumnNames are informative column names for this type.
	ColumnNames []string
	// Comments are comment templates occasionally attached to the column.
	Comments []string
	// SQLType is the declared data type in the user database.
	SQLType string
	// Gen produces one cell value.
	Gen func(rng *rand.Rand) string
	// CoTypes lists types that may co-occur as additional labels on the
	// same column (multi-label, §2.2), with a small probability.
	CoTypes []string
}

// Registry holds the semantic type domain set S.
type Registry struct {
	types  []*Type
	byName map[string]*Type
}

// NewRegistry builds a registry over the given types, which must have unique
// names.
func NewRegistry(types []*Type) *Registry {
	r := &Registry{byName: make(map[string]*Type, len(types))}
	for _, t := range types {
		if _, dup := r.byName[t.Name]; dup {
			panic("corpus: duplicate type " + t.Name)
		}
		r.types = append(r.types, t)
		r.byName[t.Name] = t
	}
	return r
}

// Types returns all registered types in registration order.
func (r *Registry) Types() []*Type { return r.types }

// Names returns all type names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, len(r.types))
	for i, t := range r.types {
		out[i] = t.Name
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered types.
func (r *Registry) Len() int { return len(r.types) }

// Subset returns a new registry containing only the named types; unknown
// names are ignored. Used to build the retained type sets Sk of §6.6.
func (r *Registry) Subset(names []string) *Registry {
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		keep[n] = true
	}
	var ts []*Type
	for _, t := range r.types {
		if keep[t.Name] {
			ts = append(ts, t)
		}
	}
	return NewRegistry(ts)
}

// --- value-generator helpers ---

// pattern expands '#' to a random digit, '@' to a random lowercase letter,
// and '^' to a random uppercase letter; other runes pass through.
func pattern(p string) func(*rand.Rand) string {
	return func(rng *rand.Rand) string {
		var b strings.Builder
		for _, r := range p {
			switch r {
			case '#':
				b.WriteByte(byte('0' + rng.Intn(10)))
			case '@':
				b.WriteByte(byte('a' + rng.Intn(26)))
			case '^':
				b.WriteByte(byte('A' + rng.Intn(26)))
			default:
				b.WriteRune(r)
			}
		}
		return b.String()
	}
}

// choice picks uniformly from opts.
func choice(opts ...string) func(*rand.Rand) string {
	return func(rng *rand.Rand) string { return opts[rng.Intn(len(opts))] }
}

// intRange renders a uniform integer in [lo, hi].
func intRange(lo, hi int) func(*rand.Rand) string {
	return func(rng *rand.Rand) string { return fmt.Sprintf("%d", lo+rng.Intn(hi-lo+1)) }
}

// floatRange renders a uniform float in [lo, hi) with prec decimals.
func floatRange(lo, hi float64, prec int) func(*rand.Rand) string {
	return func(rng *rand.Rand) string {
		return fmt.Sprintf("%.*f", prec, lo+rng.Float64()*(hi-lo))
	}
}

// compose joins the outputs of gens with sep.
func compose(sep string, gens ...func(*rand.Rand) string) func(*rand.Rand) string {
	return func(rng *rand.Rand) string {
		parts := make([]string, len(gens))
		for i, g := range gens {
			parts[i] = g(rng)
		}
		return strings.Join(parts, sep)
	}
}

var (
	firstNames = []string{"james", "mary", "wei", "olivia", "li", "noah", "emma", "lucas", "mia", "chen", "sofia", "hugo", "yuki", "anna", "omar", "ivan", "lena", "marco", "nina", "raj"}
	lastNames  = []string{"smith", "johnson", "wang", "garcia", "mueller", "tanaka", "silva", "kumar", "lopez", "kim", "chen", "brown", "rossi", "novak", "ali", "park", "santos", "weber", "mori", "diaz"}
	cities     = []string{"london", "paris", "tokyo", "beijing", "sydney", "toronto", "berlin", "madrid", "rome", "cairo", "mumbai", "seoul", "lagos", "lima", "oslo", "dublin", "vienna", "prague", "athens", "dubai"}
	countries  = []string{"france", "japan", "brazil", "canada", "germany", "india", "china", "egypt", "spain", "italy", "kenya", "norway", "peru", "poland", "qatar", "russia", "sweden", "turkey", "vietnam", "mexico"}
	companies  = []string{"acme corp", "globex", "initech", "umbrella", "stark industries", "wayne enterprises", "hooli", "vandelay", "wonka", "cyberdyne", "tyrell", "aperture", "oscorp", "dunder mifflin", "monsters inc"}
	jobTitles  = []string{"software engineer", "data analyst", "product manager", "accountant", "nurse", "teacher", "electrician", "designer", "architect", "chef", "pilot", "lawyer", "scientist", "editor", "surveyor"}
	colors     = []string{"red", "blue", "green", "yellow", "purple", "orange", "black", "white", "cyan", "magenta", "teal", "maroon", "navy", "olive", "silver"}
	languages  = []string{"english", "mandarin", "spanish", "hindi", "arabic", "french", "russian", "portuguese", "german", "japanese", "korean", "italian", "dutch", "turkish", "swedish"}
	genres     = []string{"rock", "pop", "jazz", "classical", "hip hop", "electronic", "country", "blues", "folk", "metal", "reggae", "soul", "punk", "ambient", "disco"}
	teams      = []string{"eagles", "tigers", "sharks", "wolves", "hawks", "lions", "bears", "falcons", "panthers", "dragons", "knights", "rangers", "pirates", "giants", "royals"}
	streets    = []string{"main st", "oak ave", "maple dr", "park rd", "cedar ln", "elm st", "lake view", "hill crest", "river rd", "sunset blvd", "kings way", "church st", "station rd", "garden ter", "mill ln"}
	currencies = []string{"USD", "EUR", "JPY", "GBP", "CNY", "AUD", "CAD", "CHF", "SEK", "INR"}
	statuses   = []string{"active", "inactive", "pending", "archived", "deleted", "suspended", "approved", "rejected", "draft", "closed"}
	depts      = []string{"engineering", "marketing", "sales", "finance", "operations", "legal", "support", "research", "logistics", "procurement"}
	mimes      = []string{"text/html", "application/json", "image/png", "image/jpeg", "application/pdf", "text/csv", "video/mp4", "audio/mpeg", "application/zip", "text/plain"}
	albums     = []string{"midnight echoes", "golden hour", "paper skies", "neon river", "quiet storm", "glass houses", "wild horizon", "silver lining", "velvet dawn", "long roads"}
	genders    = []string{"male", "female", "other", "unknown"}
	brands     = []string{"zenith", "polaris", "nimbus", "vertex", "solace", "kinetic", "aurora", "catalyst", "ember", "drift"}
)

func nameGen(rng *rand.Rand) string {
	return firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
}

func dateGen(rng *rand.Rand) string {
	return fmt.Sprintf("%04d-%02d-%02d", 1950+rng.Intn(75), 1+rng.Intn(12), 1+rng.Intn(28))
}

func datetimeGen(rng *rand.Rand) string {
	return dateGen(rng) + fmt.Sprintf(" %02d:%02d:%02d", rng.Intn(24), rng.Intn(60), rng.Intn(60))
}

func emailGen(rng *rand.Rand) string {
	domains := []string{"example.com", "mail.net", "corp.org", "cloud.io", "inbox.cn"}
	return firstNames[rng.Intn(len(firstNames))] + "." + lastNames[rng.Intn(len(lastNames))] + "@" + domains[rng.Intn(len(domains))]
}

func urlGen(rng *rand.Rand) string {
	hosts := []string{"example.com", "docs.site.org", "app.cloud.io", "shop.store.net", "blog.media.cn"}
	paths := []string{"home", "about", "items", "docs", "post", "page", "view", "list"}
	return "https://" + hosts[rng.Intn(len(hosts))] + "/" + paths[rng.Intn(len(paths))] + fmt.Sprintf("/%d", rng.Intn(10000))
}

func ibanGen(rng *rand.Rand) string {
	cc := []string{"DE", "FR", "GB", "ES", "NL"}
	d := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		return b.String()
	}
	return cc[rng.Intn(len(cc))] + d(2) + d(18)
}

func fileNameGen(rng *rand.Rand) string {
	stems := []string{"report", "invoice", "summary", "data", "backup", "photo", "notes", "draft"}
	exts := []string{".pdf", ".csv", ".txt", ".png", ".docx", ".xlsx", ".zip", ".json"}
	return stems[rng.Intn(len(stems))] + fmt.Sprintf("_%d", rng.Intn(1000)) + exts[rng.Intn(len(exts))]
}

func userAgentGen(rng *rand.Rand) string {
	uas := []string{
		"Mozilla/5.0 (Windows NT 10.0) Chrome/1##.0",
		"Mozilla/5.0 (Macintosh) Safari/6##.1",
		"Mozilla/5.0 (X11; Linux) Firefox/1##.0",
		"curl/8.#.#",
	}
	return pattern(uas[rng.Intn(len(uas))])(rng)
}

func nullValueGen(rng *rand.Rand) string {
	// Columns without a semantic type hold miscellaneous values that do
	// not follow any recognizable protocol.
	switch rng.Intn(5) {
	case 0:
		return pattern("@@@@@@")(rng)
	case 1:
		return fmt.Sprintf("%d", rng.Intn(1000000))
	case 2:
		return pattern("x-^^##@@")(rng)
	case 3:
		return choice("yes", "no", "n/a", "tbd", "ok")(rng)
	default:
		return pattern("@@@ @@@@@ @@")(rng)
	}
}

// DefaultRegistry builds the full built-in semantic type domain (60 types).
func DefaultRegistry() *Registry {
	return NewRegistry(defaultTypes())
}

func defaultTypes() []*Type {
	return []*Type{
		// --- PII / identity ---
		{Name: "first_name", Category: "person", SQLType: "VARCHAR", ColumnNames: []string{"first_name", "firstname", "given_name", "fname"}, Comments: []string{"given name of the person", "first name"}, Gen: choice(firstNames...)},
		{Name: "last_name", Category: "person", SQLType: "VARCHAR", ColumnNames: []string{"last_name", "surname", "family_name", "lname"}, Comments: []string{"family name", "surname of the person"}, Gen: choice(lastNames...)},
		{Name: "full_name", Category: "person", SQLType: "VARCHAR", ColumnNames: []string{"full_name", "person_name", "customer_name", "employee_name"}, Comments: []string{"full legal name", "name of the customer"}, Gen: nameGen, CoTypes: []string{"first_name"}},
		{Name: "email", Category: "contact", SQLType: "VARCHAR", ColumnNames: []string{"email", "email_address", "mail", "contact_email"}, Comments: []string{"email address", "primary contact email"}, Gen: emailGen},
		{Name: "phone_number", Category: "numeric_id", SQLType: "VARCHAR", ColumnNames: []string{"phone", "phone_number", "mobile", "telephone"}, Comments: []string{"contact phone number", "mobile phone"}, Gen: pattern("1##########")},
		{Name: "credit_card_number", Category: "numeric_id", SQLType: "VARCHAR", ColumnNames: []string{"credit_card", "card_number", "cc_number", "payment_card"}, Comments: []string{"payment card number", "credit card for billing"}, Gen: pattern("4###############")},
		{Name: "ssn", Category: "numeric_id", SQLType: "VARCHAR", ColumnNames: []string{"ssn", "social_security", "national_id"}, Comments: []string{"social security number"}, Gen: pattern("###-##-####")},
		{Name: "passport_number", Category: "numeric_id", SQLType: "VARCHAR", ColumnNames: []string{"passport", "passport_no", "passport_number"}, Comments: []string{"passport document number"}, Gen: pattern("^########")},
		{Name: "iban", Category: "numeric_id", SQLType: "VARCHAR", ColumnNames: []string{"iban", "bank_account", "account_iban"}, Comments: []string{"international bank account number"}, Gen: ibanGen},
		{Name: "license_plate", Category: "numeric_id", SQLType: "VARCHAR", ColumnNames: []string{"license_plate", "plate_number", "vehicle_plate"}, Comments: []string{"vehicle registration plate"}, Gen: pattern("^^##-^^^")},
		{Name: "uuid", Category: "identifier", SQLType: "VARCHAR", ColumnNames: []string{"uuid", "guid", "object_id"}, Comments: []string{"globally unique identifier"}, Gen: pattern("########-####-####-####-############")},
		{Name: "user_id", Category: "identifier", SQLType: "INT", ColumnNames: []string{"user_id", "uid", "account_id", "customer_id"}, Comments: []string{"internal user identifier"}, Gen: intRange(1, 999999)},
		{Name: "username", Category: "person", SQLType: "VARCHAR", ColumnNames: []string{"username", "login", "handle", "nickname"}, Comments: []string{"login handle"}, Gen: compose("_", choice(firstNames...), intRange(1, 999))},
		{Name: "gender", Category: "category", SQLType: "VARCHAR", ColumnNames: []string{"gender", "sex"}, Comments: []string{"gender of the person"}, Gen: choice(genders...)},
		{Name: "age", Category: "measure", SQLType: "INT", ColumnNames: []string{"age", "person_age", "age_years"}, Comments: []string{"age in years"}, Gen: intRange(1, 99)},
		{Name: "job_title", Category: "business", SQLType: "VARCHAR", ColumnNames: []string{"job_title", "occupation", "position", "role"}, Comments: []string{"occupation of the person"}, Gen: choice(jobTitles...)},
		// --- geo ---
		{Name: "country", Category: "geo", SQLType: "VARCHAR", ColumnNames: []string{"country", "nation", "country_name"}, Comments: []string{"country name"}, Gen: choice(countries...)},
		{Name: "city", Category: "geo", SQLType: "VARCHAR", ColumnNames: []string{"city", "town", "city_name"}, Comments: []string{"city of residence"}, Gen: choice(cities...), CoTypes: []string{"country"}},
		{Name: "address", Category: "geo", SQLType: "VARCHAR", ColumnNames: []string{"address", "street_address", "addr"}, Comments: []string{"street address"}, Gen: compose(" ", intRange(1, 9999), choice(streets...))},
		{Name: "zip_code", Category: "numeric_id", SQLType: "VARCHAR", ColumnNames: []string{"zip", "zip_code", "postal_code", "postcode"}, Comments: []string{"postal code"}, Gen: pattern("#####")},
		{Name: "latitude", Category: "measure", SQLType: "DOUBLE", ColumnNames: []string{"latitude", "lat"}, Comments: []string{"latitude in degrees"}, Gen: floatRange(-90, 90, 5)},
		{Name: "longitude", Category: "measure", SQLType: "DOUBLE", ColumnNames: []string{"longitude", "lon", "lng"}, Comments: []string{"longitude in degrees"}, Gen: floatRange(-180, 180, 5)},
		{Name: "ip_address", Category: "network", SQLType: "VARCHAR", ColumnNames: []string{"ip", "ip_address", "client_ip", "host_ip"}, Comments: []string{"ipv4 address of the client"}, Gen: func(rng *rand.Rand) string {
			return fmt.Sprintf("%d.%d.%d.%d", 1+rng.Intn(254), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
		}},
		{Name: "mac_address", Category: "network", SQLType: "VARCHAR", ColumnNames: []string{"mac", "mac_address", "hw_addr"}, Comments: []string{"hardware mac address"}, Gen: func(rng *rand.Rand) string {
			parts := make([]string, 6)
			for i := range parts {
				parts[i] = fmt.Sprintf("%02x", rng.Intn(256))
			}
			return strings.Join(parts, ":")
		}},
		{Name: "url", Category: "network", SQLType: "VARCHAR", ColumnNames: []string{"url", "link", "website", "homepage"}, Comments: []string{"web page url"}, Gen: urlGen},
		{Name: "user_agent", Category: "network", SQLType: "VARCHAR", ColumnNames: []string{"user_agent", "browser", "ua_string"}, Comments: []string{"http user agent header"}, Gen: userAgentGen},
		// --- temporal ---
		{Name: "date", Category: "temporal", SQLType: "DATE", ColumnNames: []string{"date", "event_date", "start_date", "dob"}, Comments: []string{"calendar date"}, Gen: dateGen},
		{Name: "datetime", Category: "temporal", SQLType: "DATETIME", ColumnNames: []string{"timestamp", "created_at", "updated_at", "event_time"}, Comments: []string{"timestamp of the event"}, Gen: datetimeGen},
		{Name: "year", Category: "temporal", SQLType: "INT", ColumnNames: []string{"year", "release_year", "founded_year"}, Comments: []string{"four digit year"}, Gen: intRange(1900, 2025)},
		{Name: "month", Category: "temporal", SQLType: "VARCHAR", ColumnNames: []string{"month", "month_name"}, Comments: []string{"month of the year"}, Gen: choice("january", "february", "march", "april", "may", "june", "july", "august", "september", "october", "november", "december")},
		{Name: "weekday", Category: "temporal", SQLType: "VARCHAR", ColumnNames: []string{"weekday", "day_of_week"}, Comments: []string{"day of the week"}, Gen: choice("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")},
		{Name: "duration", Category: "measure", SQLType: "INT", ColumnNames: []string{"duration", "runtime", "elapsed_sec"}, Comments: []string{"duration in seconds"}, Gen: intRange(1, 86400)},
		// --- commerce / business ---
		{Name: "price", Category: "money", SQLType: "DECIMAL", ColumnNames: []string{"price", "unit_price", "cost", "amount"}, Comments: []string{"price in local currency"}, Gen: floatRange(0.5, 9999, 2)},
		{Name: "currency", Category: "category", SQLType: "VARCHAR", ColumnNames: []string{"currency", "currency_code"}, Comments: []string{"iso currency code"}, Gen: choice(currencies...)},
		{Name: "company", Category: "business", SQLType: "VARCHAR", ColumnNames: []string{"company", "employer", "organization", "vendor"}, Comments: []string{"company name"}, Gen: choice(companies...)},
		{Name: "department", Category: "business", SQLType: "VARCHAR", ColumnNames: []string{"department", "dept", "division"}, Comments: []string{"internal department"}, Gen: choice(depts...)},
		{Name: "product_name", Category: "business", SQLType: "VARCHAR", ColumnNames: []string{"product", "product_name", "item_name"}, Comments: []string{"catalog product name"}, Gen: compose(" ", choice(brands...), choice("mini", "pro", "max", "lite", "plus", "x"))},
		{Name: "sku", Category: "identifier", SQLType: "VARCHAR", ColumnNames: []string{"sku", "item_code", "product_code"}, Comments: []string{"stock keeping unit"}, Gen: pattern("^^^-####")},
		{Name: "order_status", Category: "category", SQLType: "VARCHAR", ColumnNames: []string{"status", "order_status", "state"}, Comments: []string{"lifecycle status"}, Gen: choice(statuses...)},
		{Name: "quantity", Category: "measure", SQLType: "INT", ColumnNames: []string{"quantity", "qty", "count", "units"}, Comments: []string{"number of units"}, Gen: intRange(1, 500)},
		{Name: "discount_pct", Category: "measure", SQLType: "DOUBLE", ColumnNames: []string{"discount", "discount_pct", "pct_off"}, Comments: []string{"discount percentage"}, Gen: floatRange(0, 90, 1)},
		{Name: "rating", Category: "measure", SQLType: "DOUBLE", ColumnNames: []string{"rating", "score", "stars"}, Comments: []string{"review rating out of five"}, Gen: floatRange(0, 5, 1)},
		{Name: "isbn", Category: "numeric_id", SQLType: "VARCHAR", ColumnNames: []string{"isbn", "isbn13", "book_isbn"}, Comments: []string{"international standard book number"}, Gen: pattern("978-#-####-####-#")},
		// --- media / culture (WikiTable flavour) ---
		{Name: "album", Category: "media", SQLType: "VARCHAR", ColumnNames: []string{"album", "album_title", "record"}, Comments: []string{"music album title"}, Gen: choice(albums...)},
		{Name: "artist", Category: "media", SQLType: "VARCHAR", ColumnNames: []string{"artist", "performer", "musician"}, Comments: []string{"performing artist"}, Gen: nameGen, CoTypes: []string{"full_name"}},
		{Name: "genre", Category: "media", SQLType: "VARCHAR", ColumnNames: []string{"genre", "music_genre", "style"}, Comments: []string{"music genre"}, Gen: choice(genres...)},
		{Name: "team", Category: "media", SQLType: "VARCHAR", ColumnNames: []string{"team", "club", "team_name"}, Comments: []string{"sports team"}, Gen: choice(teams...)},
		{Name: "language", Category: "category", SQLType: "VARCHAR", ColumnNames: []string{"language", "lang", "spoken_language"}, Comments: []string{"natural language"}, Gen: choice(languages...)},
		{Name: "color", Category: "category", SQLType: "VARCHAR", ColumnNames: []string{"color", "colour", "paint_color"}, Comments: []string{"color name"}, Gen: choice(colors...)},
		// --- measures ---
		{Name: "temperature_c", Category: "measure", SQLType: "DOUBLE", ColumnNames: []string{"temperature", "temp_c", "celsius"}, Comments: []string{"temperature in celsius"}, Gen: floatRange(-40, 50, 1)},
		{Name: "weight_kg", Category: "measure", SQLType: "DOUBLE", ColumnNames: []string{"weight", "weight_kg", "mass"}, Comments: []string{"weight in kilograms"}, Gen: floatRange(0.1, 500, 2)},
		{Name: "height_cm", Category: "measure", SQLType: "DOUBLE", ColumnNames: []string{"height", "height_cm", "stature"}, Comments: []string{"height in centimeters"}, Gen: floatRange(30, 220, 1)},
		{Name: "population", Category: "measure", SQLType: "BIGINT", ColumnNames: []string{"population", "pop", "inhabitants"}, Comments: []string{"number of inhabitants"}, Gen: intRange(1000, 40000000)},
		{Name: "area_km2", Category: "measure", SQLType: "DOUBLE", ColumnNames: []string{"area", "area_km2", "surface"}, Comments: []string{"area in square kilometers"}, Gen: floatRange(0.1, 100000, 1)},
		{Name: "percentage", Category: "measure", SQLType: "DOUBLE", ColumnNames: []string{"percentage", "pct", "share"}, Comments: []string{"share in percent"}, Gen: floatRange(0, 100, 2)},
		// --- files / tech ---
		{Name: "file_name", Category: "tech", SQLType: "VARCHAR", ColumnNames: []string{"file_name", "filename", "file"}, Comments: []string{"name of the file"}, Gen: fileNameGen},
		{Name: "mime_type", Category: "tech", SQLType: "VARCHAR", ColumnNames: []string{"mime_type", "content_type", "media_type"}, Comments: []string{"mime content type"}, Gen: choice(mimes...)},
		{Name: "file_size", Category: "measure", SQLType: "BIGINT", ColumnNames: []string{"file_size", "size_bytes", "bytes"}, Comments: []string{"file size in bytes"}, Gen: intRange(10, 1000000000)},
		{Name: "version", Category: "tech", SQLType: "VARCHAR", ColumnNames: []string{"version", "semver", "release"}, Comments: []string{"software version"}, Gen: pattern("#.##.#")},
		{Name: "hex_color", Category: "tech", SQLType: "VARCHAR", ColumnNames: []string{"hex_color", "color_code", "rgb_hex"}, Comments: []string{"hex color code"}, Gen: func(rng *rand.Rand) string { return fmt.Sprintf("#%06x", rng.Intn(1<<24)) }},
		{Name: "boolean_flag", Category: "category", SQLType: "TINYINT", ColumnNames: []string{"is_active", "enabled", "flag", "verified"}, Comments: []string{"boolean flag"}, Gen: choice("0", "1")},
	}
}

// AmbiguousNames lists uninformative column names per category. A column
// whose generator decides to be "ambiguous" draws from its category pool
// plus the global pool, hiding the type from metadata-only inspection.
var AmbiguousNames = map[string][]string{
	"numeric_id": {"num", "number", "no"},
	"contact":    {"contact", "reach"},
	"person":     {"name", "person"},
	"geo":        {"location", "place"},
	"measure":    {"value", "amount", "measure"},
	"temporal":   {"time", "when"},
	"category":   {"type", "kind", "class"},
	"media":      {"title", "entry"},
	"business":   {"org", "unit"},
	"network":    {"addr", "endpoint"},
	"identifier": {"id", "key", "ref"},
	"money":      {"value", "amount"},
	"tech":       {"info", "attr"},
}

// globalAmbiguousNames may appear on any column regardless of category.
var globalAmbiguousNames = []string{"col1", "col2", "field", "data", "val", "x"}

// NullColumnNames are used for columns with no semantic type. They are
// deliberately distinct from AmbiguousNames so that "unknown type" and
// "ambiguous type" are different populations, as in real data lakes where
// most unlabeled columns are recognizably miscellaneous.
var NullColumnNames = []string{"notes", "remark", "misc", "extra", "memo", "comment_text", "aux", "padding", "reserved", "blob9"}
