package lightning_test

import (
	"bytes"
	"fmt"

	lightning "github.com/lightning-smartnic/lightning"
)

// Train a classifier and serve one query through the photonic datapath.
func Example() {
	set := lightning.AnomalyDataset(800, 7)
	train, test := set.Split(0.8)
	model, _, _, err := lightning.Train(train, lightning.TrainOptions{
		Hidden: []int{16, 8}, Epochs: 10, Seed: 7,
	})
	if err != nil {
		panic(err)
	}

	nic, err := lightning.New(lightning.DefaultConfig())
	if err != nil {
		panic(err)
	}
	if err := nic.RegisterModel(1, "security", model); err != nil {
		panic(err)
	}

	ex := test.Examples[0]
	payload := make([]byte, len(ex.X))
	for i, c := range ex.X {
		payload[i] = byte(c)
	}
	resp, err := nic.HandleMessage(&lightning.Message{RequestID: 1, ModelID: 1, Payload: payload})
	if err != nil {
		panic(err)
	}
	fmt.Println(resp.Class == uint16(ex.Label))
	// Output: true
}

// Save and reload a trained model, as the PCIe update path ships it.
func ExampleSaveModel() {
	set := lightning.AnomalyDataset(300, 3)
	model, _, _, err := lightning.Train(set, lightning.TrainOptions{
		Hidden: []int{8}, Epochs: 5, Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := lightning.SaveModel(&buf, model); err != nil {
		panic(err)
	}
	loaded, err := lightning.LoadModel(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println(lightning.Evaluate(loaded, set) == lightning.Evaluate(model, set))
	// Output: true
}
