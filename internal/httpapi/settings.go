package httpapi

import (
	"errors"
	"fmt"
	"net/http"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// This file implements the endpoint the paper's Figure 4 settings
// options point at: each option's "on" URL carries its choice as a
// query string ("wifi=opt-in&granularity=coarse", "wifi=opt-out").
// Activating an option translates the choice into an enforceable
// preference and installs it — the Figure 1 step-8 path for users
// clicking through their assistant's UI rather than letting it
// auto-configure.
//
//	GET|POST /v1/settings?user=U&wifi=opt-in|opt-out
//	         [&granularity=fine|coarse|none][&service=S][&kind=K]

// settingsResult echoes the installed preference.
type settingsResult struct {
	Applied    PreferenceDTO `json:"applied"`
	Equivalent string        `json:"equivalent"`
}

func (s *Server) handleSettings(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	user := q.Get("user")
	if user == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing user parameter"))
		return
	}
	pref, equivalent, err := preferenceFromSettingsQuery(user, q.Get("wifi"), q.Get("granularity"), q.Get("service"), q.Get("kind"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.bms.SetPreference(pref); err != nil {
		writeErr(w, ruleErrStatus(err, http.StatusUnprocessableEntity), err)
		return
	}
	writeJSON(w, http.StatusOK, settingsResult{Applied: PreferenceToDTO(pref), Equivalent: equivalent})
}

// preferenceFromSettingsQuery maps a Figure 4 choice to a rule:
// opt-out denies; opt-in with coarse limits to building granularity;
// opt-in with fine (or no granularity) allows explicitly.
func preferenceFromSettingsQuery(user, wifi, granularity, serviceID, kind string) (policy.Preference, string, error) {
	obsKind := sensor.ObsWiFiConnect
	if kind != "" {
		obsKind = sensor.ObservationKind(kind)
	}
	scope := policy.Scope{ObsKind: obsKind, ServiceID: serviceID}

	var rule policy.Rule
	var label string
	switch wifi {
	case "opt-out":
		rule = policy.Rule{Action: policy.ActionDeny}
		label = "No location sensing"
	case "opt-in", "":
		g := policy.GranExact
		if granularity != "" {
			parsed, err := policy.ParseGranularity(granularity)
			if err != nil {
				return policy.Preference{}, "", err
			}
			g = parsed
		}
		switch g {
		case policy.GranNone:
			rule = policy.Rule{Action: policy.ActionDeny}
			label = "No location sensing"
		case policy.GranExact:
			rule = policy.Rule{Action: policy.ActionAllow}
			label = "fine grained location sensing"
		default:
			rule = policy.Rule{Action: policy.ActionLimit, MaxGranularity: g}
			label = fmt.Sprintf("location sensing at %s granularity", g)
		}
	default:
		return policy.Preference{}, "", fmt.Errorf("invalid wifi value %q (want opt-in or opt-out)", wifi)
	}

	id := fmt.Sprintf("settings-%s-%s-%s", user, obsKind, serviceID)
	if serviceID == "" {
		id = fmt.Sprintf("settings-%s-%s", user, obsKind)
	}
	return policy.Preference{
		ID:     id,
		UserID: user,
		Name:   label,
		Scope:  scope,
		Rule:   rule,
		Source: "explicit",
	}, label, nil
}
