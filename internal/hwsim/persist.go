package hwsim

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Chip configurations are data, not code: the paper's conclusion argues
// H₂O-NAS "enables late binding of model architectures to hardware
// architectures", letting architects commit silicon years before the
// models that will run on it exist. Loading a hypothetical chip from JSON
// and searching against it is exactly that workflow (see
// examples/futurechip).

// chipFile is the JSON wire format, in architect-friendly units.
type chipFile struct {
	Version int    `json:"version"`
	Name    string `json:"name"`

	PeakMXUTFLOPS float64 `json:"peak_mxu_tflops"`
	PeakVPUTFLOPS float64 `json:"peak_vpu_tflops"`
	HBMGBps       float64 `json:"hbm_gbps"`
	HBMCapacityGB float64 `json:"hbm_capacity_gb"`
	CMEMMiB       float64 `json:"cmem_mib"`
	CMEMGBps      float64 `json:"cmem_gbps"`
	ICIGBps       float64 `json:"ici_gbps"`
	OpOverheadUS  float64 `json:"op_overhead_us"`

	IdleW float64 `json:"idle_w"`
	MXUW  float64 `json:"mxu_w"`
	VPUW  float64 `json:"vpu_w"`
	HBMW  float64 `json:"hbm_w"`
	CMEMW float64 `json:"cmem_w"`
	ICIW  float64 `json:"ici_w"`

	SiliconGap float64 `json:"silicon_gap"`
}

const chipFileVersion = 1

// SaveChip writes the chip configuration as JSON.
func SaveChip(w io.Writer, c Chip) error {
	f := chipFile{
		Version:       chipFileVersion,
		Name:          c.Name,
		PeakMXUTFLOPS: c.PeakMXUFLOPS / 1e12,
		PeakVPUTFLOPS: c.PeakVPUFLOPS / 1e12,
		HBMGBps:       c.HBMBandwidth / 1e9,
		HBMCapacityGB: c.HBMCapacity / 1e9,
		CMEMMiB:       c.CMEMCapacity / (1 << 20),
		CMEMGBps:      c.CMEMBandwidth / 1e9,
		ICIGBps:       c.ICIBandwidth / 1e9,
		OpOverheadUS:  c.OpOverhead * 1e6,
		IdleW:         c.IdlePower,
		MXUW:          c.MXUPower,
		VPUW:          c.VPUPower,
		HBMW:          c.HBMPower,
		CMEMW:         c.CMEMPower,
		ICIW:          c.ICIPower,
		SiliconGap:    c.SiliconGap,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&f)
}

// LoadChip reads a chip configuration written by SaveChip (or authored by
// hand — the format uses TFLOPS/GBps/watts, the units datasheets speak).
func LoadChip(r io.Reader) (Chip, error) {
	var f chipFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return Chip{}, fmt.Errorf("hwsim: decoding chip config: %w", err)
	}
	if f.Version != chipFileVersion {
		return Chip{}, fmt.Errorf("hwsim: unsupported chip file version %d", f.Version)
	}
	c := Chip{
		Name:          f.Name,
		PeakMXUFLOPS:  f.PeakMXUTFLOPS * 1e12,
		PeakVPUFLOPS:  f.PeakVPUTFLOPS * 1e12,
		HBMBandwidth:  f.HBMGBps * 1e9,
		HBMCapacity:   f.HBMCapacityGB * 1e9,
		CMEMCapacity:  f.CMEMMiB * (1 << 20),
		CMEMBandwidth: f.CMEMGBps * 1e9,
		ICIBandwidth:  f.ICIGBps * 1e9,
		OpOverhead:    f.OpOverheadUS / 1e6,
		IdlePower:     f.IdleW,
		MXUPower:      f.MXUW,
		VPUPower:      f.VPUW,
		HBMPower:      f.HBMW,
		CMEMPower:     f.CMEMW,
		ICIPower:      f.ICIW,
		SiliconGap:    f.SiliconGap,
	}
	if err := c.Validate(); err != nil {
		return Chip{}, err
	}
	return c, nil
}

// ResolveChip is the -chip/-chip-file resolution of the CLIs: the custom
// chip configuration in file when one is named, else the built-in chip.
func ResolveChip(name, file string) (Chip, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return Chip{}, err
		}
		defer f.Close()
		return LoadChip(f)
	}
	chip, ok := ChipByName(name)
	if !ok {
		return Chip{}, fmt.Errorf("unknown chip %q", name)
	}
	return chip, nil
}

// Validate checks that the chip configuration is physically plausible.
func (c Chip) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("hwsim: chip needs a name")
	}
	if c.PeakMXUFLOPS <= 0 || c.PeakVPUFLOPS <= 0 {
		return fmt.Errorf("hwsim: chip %q needs positive compute peaks", c.Name)
	}
	if c.HBMBandwidth <= 0 || c.HBMCapacity <= 0 {
		return fmt.Errorf("hwsim: chip %q needs positive HBM bandwidth and capacity", c.Name)
	}
	if c.CMEMCapacity > 0 && c.CMEMBandwidth <= 0 {
		return fmt.Errorf("hwsim: chip %q has CMEM capacity but no CMEM bandwidth", c.Name)
	}
	if c.OpOverhead < 0 || c.IdlePower < 0 {
		return fmt.Errorf("hwsim: chip %q has negative overhead or idle power", c.Name)
	}
	return nil
}
